// Command chaossoak soak-tests a matchd binary under a deterministic fault
// schedule. It is the CI-facing half of internal/chaos: the chaos test
// suite (`go test -tags chaos ./...`) proves each recovery path in
// isolation; chaossoak proves the assembled service survives minutes of
// faulted traffic — and still drains cleanly on SIGTERM — as one black box.
//
// Usage:
//
//	go build -tags chaos -o /tmp/matchd ./cmd/matchd
//	go run ./cmd/chaossoak -bin /tmp/matchd -duration 30s -seed 42
//
// chaossoak starts the binary with -chaos-seed/-chaos-plan, registers a
// planted dictionary, and hammers it from -clients goroutines with four
// request kinds, each verified against an in-process oracle:
//
//   - buffered /match, checked position-by-position against Aho–Corasick
//   - /compress + /decompress, checked byte-for-byte round trip
//   - NDJSON /match/stream, events checked against the oracle and the
//     trailer required to be a summary or an explicit {"error":...} line —
//     a stream that just stops is silent truncation, the one unforgivable
//     outcome
//   - /match/compressed/buffered on LZ1R1 containers, hits checked against
//     the same oracle (the compressed-domain scanner must be
//     indistinguishable from decompress-then-match): in turn the container
//     of the planted text, whose short tokens the scanner expands and scans
//     ("engine":"dense"), and one of a periodic text, whose long tokens it
//     scans as tokens ("engine":"czsearch"); a reply that names no engine
//     fails the soak
//
// Requests that fail with 500/503 are expected casualties (the plan forces
// Las Vegas exhaustion now and then; the breaker answers 503 while it
// re-randomizes) and are only counted. Any 200 whose payload disagrees
// with the oracle is a correctness bug and fails the soak immediately.
// After the deadline, chaossoak SIGTERMs the server and requires exit
// status 0 plus the "clean shutdown" log line.
//
// Exit status: 0 = soak passed; 1 = oracle mismatch, unclean drain, or the
// fault schedule never fired.
//
// Cluster soak (-cluster N, N ≥ 2): instead of one faulted process,
// chaossoak starts N matchd processes as a replicated cluster (consistent
// hashing, -replicas 2, request hedging), registers the dictionary once,
// warms every node, then hammers all N bases round-robin. A third of the
// way in it SIGKILLs one node mid-traffic; two thirds in it restarts the
// same node on the same address and cache directory (a warm start). The
// fault schedule here is the kill itself, so -plan defaults to empty and a
// plain (non-chaos) matchd build suffices; passing -plan explicitly arms it
// on every node. Pass criteria: zero oracle divergences, zero silently
// truncated streams (a stream either carries its trailer or fails as a
// broken transfer), the killed node's dictionaries stay servable from
// replicas, at least one replication pull shows in /metrics, and every
// surviving node drains cleanly on SIGTERM.
//
// Partition soak (-cluster N -partition): instead of a kill/restart, the
// middle third of the soak asymmetrically partitions the dictionary's
// primary owner — every other node's outbound pool gets an injected
// rpc.refuse fault against the victim via POST /v1/rpcfaults, while the
// victim's own outbound stays clean (A→B dead, B→A alive). Traffic keeps
// flowing to every node throughout. Pass criteria: zero oracle
// divergences, zero silent truncations, requests keep succeeding during
// the partition (rerouted to the surviving replica or served stale), every
// non-victim's breaker for the victim runs the full open → half-open →
// closed lifecycle visible in /metrics, the victim's outbound saw zero
// injected faults (asymmetry), and every node drains cleanly.
package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/chaos"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/textgen"
)

// defaultPlan keeps the per-attempt collision probability low enough that
// most requests recover within the matchAttempts budget (occasional
// exhaustions and breaker trips are wanted — they exercise the 500/503
// paths) while firing every point class: fingerprint collisions, LZ token
// corruption, straggler delays, stream stalls, and compressed-scan
// truncation (every Nth token read across the soak — the scanner must fail
// those requests with a 500, never a short 200).
const defaultPlan = "fp.collide:p=0.0001;lz.corrupt:p=0.005;pool.delay:p=0.002,delay=500us;stream.stall:p=0.02,delay=1ms;czsearch.truncate:every=5000"

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaossoak: ")
	bin := flag.String("bin", "", "path to a matchd binary built with -tags chaos (required)")
	duration := flag.Duration("duration", 30*time.Second, "soak length before the SIGTERM drain check")
	seed := flag.Uint64("seed", 42, "chaos plan seed, forwarded as matchd -chaos-seed")
	plan := flag.String("plan", defaultPlan, "fault schedule, forwarded as matchd -chaos-plan")
	clients := flag.Int("clients", 8, "concurrent request loops")
	textSize := flag.Int("text", 1<<13, "planted text bytes per match request")
	serverFlags := flag.String("server-flags", "", "extra whitespace-separated flags appended to the matchd command line, e.g. '-dense=off'")
	clusterN := flag.Int("cluster", 0, "run N matchd processes as a replicated cluster and kill/restart one mid-soak (0 = single-node chaos soak)")
	partition := flag.Bool("partition", false, "with -cluster N: instead of a kill/restart, asymmetrically partition the primary owner mid-soak via injected wire faults and require breaker open→half-open→closed recovery")
	flag.Parse()
	if *bin == "" {
		log.Fatal("-bin is required (build one with: go build -tags chaos -o /tmp/matchd ./cmd/matchd)")
	}
	if *partition && *clusterN < 2 {
		log.Fatal("-partition requires -cluster N (N >= 2)")
	}
	if *clusterN != 0 {
		if *clusterN < 2 {
			log.Fatal("-cluster needs at least 2 nodes")
		}
		if *partition {
			runPartitionSoak(*bin, *clusterN, *duration, *seed, *clients, *textSize, *serverFlags)
			return
		}
		planSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "plan" {
				planSet = true
			}
		})
		clusterPlan := *plan
		if !planSet {
			clusterPlan = "" // the node kill is the fault schedule
		}
		runClusterSoak(*bin, *clusterN, *duration, *seed, clusterPlan, *clients, *textSize, *serverFlags)
		return
	}
	if _, err := chaos.ParsePlan(*seed, *plan); err != nil {
		log.Fatalf("bad -plan: %v", err)
	}

	addr := freeAddr()
	base := "http://" + addr
	args := []string{
		"-addr", addr, "-procs", "2",
		"-chaos-seed", fmt.Sprint(*seed), "-chaos-plan", *plan,
	}
	args = append(args, strings.Fields(*serverFlags)...)
	cmd := exec.Command(*bin, args...)
	var serverLog bytes.Buffer
	cmd.Stdout = &serverLog
	cmd.Stderr = &serverLog
	if err := cmd.Start(); err != nil {
		log.Fatalf("starting %s: %v", *bin, err)
	}
	fail := func(format string, args ...any) {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		log.Printf("--- server log ---\n%s", serverLog.String())
		log.Fatalf(format, args...)
	}
	waitHealthy(base, cmd, fail)

	// Workload: one planted dictionary plus its Aho–Corasick oracle, and a
	// pool of repetitive LZ payloads. Registration happens before traffic,
	// so preprocessing itself is unfaulted (the plan only perturbs serving).
	gen := textgen.New(*seed)
	text, patterns := gen.PlantedDictionary(*textSize, 24, 8, 101, 4)
	ac := ahocorasick.New(patterns)
	oracle := ac.Match(text)
	wantHits := 0
	for _, p := range oracle {
		if p >= 0 {
			wantHits++
		}
	}
	if wantHits == 0 {
		fail("degenerate workload: planted text has no oracle matches")
	}
	patStrs := make([]string, len(patterns))
	for i, p := range patterns {
		patStrs[i] = string(p)
	}
	id := createDict(base, patStrs, fail)
	lzPayloads := make([][]byte, 16)
	for i := range lzPayloads {
		lzPayloads[i] = gen.Repetitive(2048+128*i, 64, 0.02)
	}
	cz := newCzTraffic(text, ac, fail)

	var (
		ok, shed, retried atomic.Int64 // 200s; 429/500/503s; 200s with attempts > 1
		streamErrTrailer  atomic.Int64 // streams ended by an explicit error line
		streamEngines     engineTally  // completed streams by the summary's engine
		mismatches        atomic.Int64
	)
	firstMismatch := make(chan string, 1)
	mismatch := func(format string, args ...any) {
		mismatches.Add(1)
		select {
		case firstMismatch <- fmt.Sprintf(format, args...):
		default:
		}
	}

	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				switch (c + i) % 4 {
				case 0:
					doMatch(base, id, text, oracle, ac, &ok, &shed, &retried, mismatch)
				case 1:
					doLZRoundTrip(base, lzPayloads[(c*31+i)%len(lzPayloads)], &ok, &shed, &retried, mismatch)
				case 2:
					doStream(base, id, text, oracle, ac, wantHits, &ok, &shed, &streamErrTrailer, &streamEngines, mismatch)
				case 3:
					cz.do(base, id, i/4, ac, &ok, &shed, mismatch)
				}
			}
		}(c)
	}
	wg.Wait()

	// Drain check: SIGTERM, then the process must exit 0 having logged a
	// clean shutdown (matchd also logs per-point chaos counters here).
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("SIGTERM: %v", err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			fail("server exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		fail("server did not exit within 30s of SIGTERM")
	}
	if !strings.Contains(serverLog.String(), "clean shutdown") {
		fail("server exited 0 but never logged a clean shutdown")
	}

	log.Printf("%v soak: %d ok (%d after retries), %d shed (429/500/503), %d streams error-trailed, %d mismatches",
		*duration, ok.Load(), retried.Load(), shed.Load(), streamErrTrailer.Load(), mismatches.Load())
	log.Print(streamEngines.report())
	log.Print(cz.report())
	for _, line := range strings.Split(strings.TrimRight(serverLog.String(), "\n"), "\n") {
		if strings.Contains(line, "chaos:") {
			log.Print(line)
		}
	}
	if n := mismatches.Load(); n > 0 {
		log.Fatalf("FAIL: %d oracle mismatches; first: %s", n, <-firstMismatch)
	}
	if ok.Load() == 0 {
		log.Fatal("FAIL: no request ever succeeded — the soak measured nothing")
	}
	if err := cz.check(); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	if !strings.Contains(serverLog.String(), "chaos: armed") {
		log.Fatal("FAIL: server never armed the chaos plan — was -bin built with -tags chaos?")
	}
	if retried.Load() == 0 && shed.Load() == 0 && streamErrTrailer.Load() == 0 {
		log.Fatal("FAIL: no fault ever surfaced (no retries, sheds, or error trailers) — plan too weak to prove anything")
	}
	log.Print("PASS")
}

// freeAddr picks an unused loopback port. The listener is closed before the
// server starts; the race window is harmless for a test harness.
func freeAddr() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(base string, cmd *exec.Cmd, fail func(string, ...any)) {
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			fail("server never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func postJSON(url string, req any) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func createDict(base string, patterns []string, fail func(string, ...any)) string {
	status, body, err := postJSON(base+"/v1/dicts", map[string]any{"patterns": patterns})
	if err != nil || status != http.StatusCreated {
		fail("dict create: status %d err %v: %s", status, err, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		fail("dict create response %q: %v", body, err)
	}
	return created.ID
}

// shedStatus reports whether a status is an expected pressure/fault
// casualty rather than a correctness problem: admission shedding (429),
// Las Vegas exhaustion (500), breaker/deadline (503), and — in the cluster
// soak — a proxy whose owner died under it (502).
func shedStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusInternalServerError ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusBadGateway
}

func doMatch(base, id string, text []byte, oracle []int32, ac *ahocorasick.Automaton,
	ok, shed, retried *atomic.Int64, mismatch func(string, ...any)) {
	status, body, err := postJSON(fmt.Sprintf("%s/v1/dicts/%s/match", base, id),
		map[string]any{"textB64": base64.StdEncoding.EncodeToString(text)})
	if err != nil {
		shed.Add(1) // transport error during drain races; not a verdict
		return
	}
	if shedStatus(status) {
		shed.Add(1)
		return
	}
	if status != http.StatusOK {
		mismatch("match: unexpected status %d: %s", status, body)
		return
	}
	var mr struct {
		N        int `json:"n"`
		Attempts int `json:"attempts"`
		Matched  int `json:"matched"`
		Hits     []struct {
			Pos     int `json:"pos"`
			Pattern int `json:"pattern"`
			Length  int `json:"length"`
		} `json:"hits"`
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		mismatch("match: bad body: %v", err)
		return
	}
	want := 0
	for _, p := range oracle {
		if p >= 0 {
			want++
		}
	}
	if mr.N != len(text) || mr.Matched != want {
		mismatch("match: %d hits over %d bytes, oracle says %d over %d", mr.Matched, mr.N, want, len(text))
		return
	}
	for _, h := range mr.Hits {
		if p := oracle[h.Pos]; int(p) != h.Pattern || int(ac.PatternLen(p)) != h.Length {
			mismatch("match: pos %d pattern %d len %d disagrees with oracle", h.Pos, h.Pattern, h.Length)
			return
		}
	}
	ok.Add(1)
	if mr.Attempts > 1 {
		retried.Add(1)
	}
}

func doLZRoundTrip(base string, payload []byte,
	ok, shed, retried *atomic.Int64, mismatch func(string, ...any)) {
	status, body, err := postJSON(base+"/v1/compress",
		map[string]any{"textB64": base64.StdEncoding.EncodeToString(payload)})
	if err != nil || shedStatus(status) {
		shed.Add(1)
		return
	}
	if status != http.StatusOK {
		mismatch("compress: unexpected status %d: %s", status, body)
		return
	}
	var cr struct {
		N        int    `json:"n"`
		Attempts int    `json:"attempts"`
		DataB64  string `json:"dataB64"`
	}
	if err := json.Unmarshal(body, &cr); err != nil || cr.N != len(payload) {
		mismatch("compress: n=%d want %d (err %v)", cr.N, len(payload), err)
		return
	}
	status, body, err = postJSON(base+"/v1/decompress", map[string]any{"dataB64": cr.DataB64})
	if err != nil || shedStatus(status) {
		shed.Add(1)
		return
	}
	if status != http.StatusOK {
		mismatch("decompress: unexpected status %d: %s", status, body)
		return
	}
	var dr struct {
		TextB64 string `json:"textB64"`
	}
	if err := json.Unmarshal(body, &dr); err != nil {
		mismatch("decompress: bad body: %v", err)
		return
	}
	round, err := base64.StdEncoding.DecodeString(dr.TextB64)
	if err != nil || !bytes.Equal(round, payload) {
		mismatch("lz round trip: output differs from input (err %v)", err)
		return
	}
	ok.Add(1)
	if cr.Attempts > 1 {
		retried.Add(1)
	}
}

// czTraffic is a soak's compressed-match traffic: two containers over the
// soak's dictionary, one on each side of the scanner's cutover, and a tally
// of the engines the replies name.
type czTraffic struct {
	cases                 [2]czCase
	czsearch, dense, tree atomic.Int64
}

// czCase is one container with the oracle of the text it represents.
type czCase struct {
	container []byte
	oracle    []int32
	wantHits  int
}

// newCzTraffic compresses the planted text — random between the plants, so
// its parse has tokens of a few bytes, which the scanner expands — and a
// periodic text made of the planted text's first 512 bytes, which parses
// into one long token after the first period (mean token length ≈ 60 B at
// 16 periods), the token scanner's ground.
func newCzTraffic(text []byte, ac *ahocorasick.Automaton, fail func(string, ...any)) *czTraffic {
	z := &czTraffic{}
	m := pram.NewSequential()
	defer m.Close()
	period := min(len(text), 512)
	for i, tx := range [][]byte{text, bytes.Repeat(text[:period], max(len(text)/period, 16))} {
		var enc bytes.Buffer
		if err := lz.EncodeStream(&enc, lz.Compress(m, tx)); err != nil {
			fail("compressing soak text %d: %v", i, err)
		}
		c := czCase{container: enc.Bytes(), oracle: ac.Match(tx)}
		for _, p := range c.oracle {
			if p >= 0 {
				c.wantHits++
			}
		}
		z.cases[i] = c
	}
	return z
}

// do posts one of the containers (turn picks which) to the buffered
// compressed-match endpoint. The scanner's contract is that its output is
// indistinguishable from decompress-then-match, so every hit is checked
// against the same Aho–Corasick oracle doMatch uses, and the reply must say
// which engine served it. A 500 is an expected casualty: under chaos the
// sampled server-side oracle fails poisoned requests loudly instead of
// serving them.
func (z *czTraffic) do(base, id string, turn int, ac *ahocorasick.Automaton, ok, shed *atomic.Int64, mismatch func(string, ...any)) {
	c := &z.cases[turn%len(z.cases)]
	status, body, err := postJSON(fmt.Sprintf("%s/v1/dicts/%s/match/compressed/buffered", base, id),
		map[string]any{"dataB64": base64.StdEncoding.EncodeToString(c.container)})
	if err != nil {
		shed.Add(1)
		return
	}
	if shedStatus(status) {
		shed.Add(1)
		return
	}
	if status != http.StatusOK {
		mismatch("compressed match: unexpected status %d: %s", status, body)
		return
	}
	var mr struct {
		N       int    `json:"n"`
		Matched int    `json:"matched"`
		Engine  string `json:"engine"`
		Hits    []struct {
			Pos     int `json:"pos"`
			Pattern int `json:"pattern"`
			Length  int `json:"length"`
		} `json:"hits"`
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		mismatch("compressed match: bad body: %v", err)
		return
	}
	if mr.N != len(c.oracle) || mr.Matched != c.wantHits {
		mismatch("compressed match: %d hits over %d bytes, oracle says %d over %d", mr.Matched, mr.N, c.wantHits, len(c.oracle))
		return
	}
	for _, h := range mr.Hits {
		if p := c.oracle[h.Pos]; int(p) != h.Pattern || int(ac.PatternLen(p)) != h.Length {
			mismatch("compressed match: pos %d pattern %d len %d disagrees with oracle", h.Pos, h.Pattern, h.Length)
			return
		}
	}
	switch mr.Engine {
	case "czsearch":
		z.czsearch.Add(1)
	case "dense":
		z.dense.Add(1)
	case "tree":
		z.tree.Add(1)
	default:
		mismatch("compressed match: reply names engine %q", mr.Engine)
		return
	}
	ok.Add(1)
}

func (z *czTraffic) report() string {
	return fmt.Sprintf("compressed by engine: %d czsearch, %d dense, %d tree", z.czsearch.Load(), z.dense.Load(), z.tree.Load())
}

// check requires that a server whose scanner served at all served in both
// of its modes: the two containers alternate, so only a cutover gone wrong
// sends them the same way. (A -dense=off server answers everything "tree".)
func (z *czTraffic) check() error {
	if cs, d := z.czsearch.Load(), z.dense.Load(); (cs == 0) != (d == 0) {
		return fmt.Errorf("%s — one scanner mode never served", z.report())
	}
	return nil
}

// engineTally counts completed /match/stream requests by the engine their
// summary names: "dense" — the carried-state cursor of an entry published
// with its automaton — or "tree" under -dense=off or a table over budget.
// Any other name is a mismatch; a stream that failed its canary ends in an
// error trailer, counted with the others.
type engineTally struct{ dense, tree atomic.Int64 }

func (e *engineTally) report() string {
	return fmt.Sprintf("streams by engine: %d dense, %d tree", e.dense.Load(), e.tree.Load())
}

func doStream(base, id string, text []byte, oracle []int32, ac *ahocorasick.Automaton, wantHits int,
	ok, shed, streamErrTrailer *atomic.Int64, engines *engineTally, mismatch func(string, ...any)) {
	resp, err := http.Post(fmt.Sprintf("%s/v1/dicts/%s/match/stream?segment=2048", base, id),
		"application/octet-stream", bytes.NewReader(text))
	if err != nil {
		shed.Add(1)
		return
	}
	defer resp.Body.Close()
	if shedStatus(resp.StatusCode) {
		shed.Add(1)
		return
	}
	if resp.StatusCode != http.StatusOK {
		mismatch("stream: unexpected status %d", resp.StatusCode)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	events, sawTrailer := 0, false
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary"`)) {
			// Success trailer: the stream completed; its event count must
			// be oracle-exact for the full text.
			sawTrailer = true
			if events != wantHits {
				mismatch("stream: %d events before summary, oracle says %d", events, wantHits)
				return
			}
			switch {
			case bytes.Contains(line, []byte(`"engine":"dense"`)):
				engines.dense.Add(1)
			case bytes.Contains(line, []byte(`"engine":"tree"`)):
				engines.tree.Add(1)
			default:
				mismatch("stream: summary %q names no engine", line)
				return
			}
			continue
		}
		if bytes.Contains(line, []byte(`"error"`)) {
			// Explicit error trailer: a mid-stream fault surfaced loudly.
			// Detected-and-reported is the contract under chaos.
			sawTrailer = true
			streamErrTrailer.Add(1)
			return
		}
		var ev struct {
			Pos     int `json:"pos"`
			Pattern int `json:"pattern"`
			Length  int `json:"length"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			mismatch("stream: unparseable line %q: %v", line, err)
			return
		}
		if p := oracle[ev.Pos]; int(p) != ev.Pattern || int(ac.PatternLen(p)) != ev.Length {
			mismatch("stream: event pos %d pattern %d len %d disagrees with oracle", ev.Pos, ev.Pattern, ev.Length)
			return
		}
		events++
	}
	if err := sc.Err(); err != nil {
		shed.Add(1) // connection died (e.g. server draining); not silent truncation by the server
		return
	}
	if !sawTrailer {
		mismatch("stream: ended after %d events with no summary or error trailer — silent truncation", events)
		return
	}
	ok.Add(1)
}

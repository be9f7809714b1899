package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/textgen"
)

// soakNode is one matchd process in the cluster soak. A node can be killed
// and restarted on the same address and cache directory, so the args and a
// per-incarnation log buffer live here.
type soakNode struct {
	name string
	addr string
	base string
	args []string

	mu   sync.Mutex
	cmd  *exec.Cmd
	logs bytes.Buffer
}

func (nd *soakNode) start(bin string) error {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	cmd := exec.Command(bin, nd.args...)
	cmd.Stdout = &lockedWriter{mu: &nd.mu, w: &nd.logs}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return err
	}
	nd.cmd = cmd
	return nil
}

// lockedWriter serializes the process's log writes with the harness's
// readers (the process writes concurrently with dumps and drain checks).
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

func (nd *soakNode) log() string {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.logs.String()
}

// runClusterSoak is the -cluster N mode: N matchd processes as a replicated
// cluster, one of them SIGKILLed a third of the way in and restarted two
// thirds in, with oracle-verified traffic against every node throughout.
func runClusterSoak(bin string, n int, duration time.Duration, seed uint64, plan string, clients, textSize int, serverFlags string) {
	cacheRoot, err := os.MkdirTemp("", "chaossoak-cluster-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheRoot)

	// Fixed addresses and a shared peer table: a restarted node must come
	// back where the table says it lives.
	nodes := make([]*soakNode, n)
	var table []string
	for i := range nodes {
		addr := freeAddr()
		name := fmt.Sprintf("n%d", i+1)
		nodes[i] = &soakNode{name: name, addr: addr, base: "http://" + addr}
		table = append(table, name+"=http://"+addr)
	}
	peerTable := strings.Join(table, ",")
	for _, nd := range nodes {
		nd.args = []string{
			"-addr", nd.addr, "-procs", "2",
			"-cluster-self", nd.name, "-cluster-peers", peerTable,
			"-replicas", "2", "-hedge-after", "20ms",
			"-cache-dir", filepath.Join(cacheRoot, nd.name),
		}
		if plan != "" {
			nd.args = append(nd.args, "-chaos-seed", fmt.Sprint(seed), "-chaos-plan", plan)
		}
		nd.args = append(nd.args, strings.Fields(serverFlags)...)
	}

	fail := func(format string, args ...any) {
		for _, nd := range nodes {
			nd.mu.Lock()
			if nd.cmd != nil && nd.cmd.Process != nil {
				_ = nd.cmd.Process.Kill()
			}
			nd.mu.Unlock()
			if nd.cmd != nil {
				_ = nd.cmd.Wait()
			}
			log.Printf("--- %s log ---\n%s", nd.name, nd.log())
		}
		log.Fatalf(format, args...)
	}
	for _, nd := range nodes {
		if err := nd.start(bin); err != nil {
			fail("starting %s: %v", nd.name, err)
		}
		waitHealthy(nd.base, nd.cmd, fail)
	}

	// Same workload as the single-node soak: planted dictionary, oracle,
	// LZ payloads, a compressed container of the planted text.
	gen := textgen.New(seed)
	text, patterns := gen.PlantedDictionary(textSize, 24, 8, 101, 4)
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
	id := createDict(nodes[0].base, patStrs, fail)
	lzPayloads := make([][]byte, 16)
	for i := range lzPayloads {
		lzPayloads[i] = gen.Repetitive(2048+128*i, 64, 0.02)
	}
	cz := newCzTraffic(text, ac, fail)

	// Warm every node before traffic so the replica owner pulls the bundle
	// now — the kill must not catch a cold replica.
	warm := base64.StdEncoding.EncodeToString(text[:256])
	for _, nd := range nodes {
		status, body, err := postJSON(nd.base+"/v1/dicts/"+id+"/match", map[string]any{"textB64": warm})
		if err != nil || status != http.StatusOK {
			fail("warming %s: status %d err %v: %s", nd.name, status, err, body)
		}
	}

	// Kill an owner — the primary, so the soak proves replicas serve, not
	// just that a bystander can die.
	victim := nodes[pickVictim(nodes, id, fail)]
	log.Printf("cluster: %d nodes up, dictionary %s..., victim %s", n, id[:12], victim.name)

	var (
		ok, shed, retried atomic.Int64
		streamErrTrailer  atomic.Int64
		streamEngines     engineTally
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

	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				base := nodes[(c+i)%n].base
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

	// The kill/restart schedule runs beside the traffic: SIGKILL (not a
	// drain — a crash) a third in, restart on the same address and cache
	// directory two thirds in.
	killAt := duration / 3
	restartAt := 2 * duration / 3
	scheduleDone := make(chan error, 1)
	go func() {
		time.Sleep(killAt)
		victim.mu.Lock()
		proc := victim.cmd.Process
		victim.mu.Unlock()
		log.Printf("cluster: SIGKILL %s at t=%v", victim.name, killAt.Round(time.Millisecond))
		if err := proc.Kill(); err != nil {
			scheduleDone <- fmt.Errorf("killing %s: %v", victim.name, err)
			return
		}
		_ = victim.cmd.Wait()
		time.Sleep(restartAt - killAt)
		log.Printf("cluster: restarting %s at t=%v", victim.name, restartAt.Round(time.Millisecond))
		if err := victim.start(bin); err != nil {
			scheduleDone <- fmt.Errorf("restarting %s: %v", victim.name, err)
			return
		}
		scheduleDone <- nil
	}()
	wg.Wait()
	if err := <-scheduleDone; err != nil {
		fail("kill/restart schedule: %v", err)
	}
	waitHealthy(victim.base, victim.cmd, fail)

	// Post-soak verification: the dictionary must be servable, oracle-exact,
	// through every node — including the restarted victim.
	full := base64.StdEncoding.EncodeToString(text)
	for _, nd := range nodes {
		status, body, err := postJSON(nd.base+"/v1/dicts/"+id+"/match", map[string]any{"textB64": full})
		if err != nil || status != http.StatusOK {
			fail("post-soak match via %s: status %d err %v: %s", nd.name, status, err, body)
		}
		var mr struct {
			Matched int `json:"matched"`
		}
		if err := json.Unmarshal(body, &mr); err != nil || mr.Matched != wantHits {
			fail("post-soak match via %s: %d hits, oracle says %d (err %v)", nd.name, mr.Matched, wantHits, err)
		}
	}

	// Replication must have actually moved bytes: at least one pull across
	// the cluster, and zero §3 re-preprocessing beyond the original create.
	var pulls, prepOps int64
	for _, nd := range nodes {
		var ms struct {
			Cluster struct {
				ReplicationPulls int64 `json:"replicationPulls"`
			} `json:"cluster"`
			PRAM map[string]struct {
				Ops int64 `json:"ops"`
			} `json:"pram"`
		}
		status, body, err := postGet(nd.base + "/metrics")
		if err != nil || status != http.StatusOK {
			fail("metrics via %s: status %d err %v", nd.name, status, err)
		}
		if err := json.Unmarshal(body, &ms); err != nil {
			fail("metrics via %s: %v", nd.name, err)
		}
		pulls += ms.Cluster.ReplicationPulls
		prepOps += ms.PRAM["preprocess"].Ops
	}
	// A killed node takes its counters with it, but the harness keeps its
	// log across incarnations — count logged pulls as well, so a pull that
	// happened in the victim's first life still proves replication moved.
	for _, nd := range nodes {
		pulls += int64(strings.Count(nd.log(), "cluster: pulled "))
	}
	if pulls == 0 {
		fail("no replication pulls anywhere — replicas never shipped a snapshot")
	}
	if prepOps > 1 {
		fail("preprocess ran %d times across the cluster; replication must restore, not recompute", prepOps)
	}

	// Drain: every node (the victim in its second incarnation) must exit 0
	// on SIGTERM with a clean-shutdown log line.
	for _, nd := range nodes {
		nd.mu.Lock()
		proc := nd.cmd.Process
		nd.mu.Unlock()
		if err := proc.Signal(syscall.SIGTERM); err != nil {
			fail("SIGTERM %s: %v", nd.name, err)
		}
	}
	for _, nd := range nodes {
		waited := make(chan error, 1)
		go func() { waited <- nd.cmd.Wait() }()
		select {
		case err := <-waited:
			if err != nil {
				fail("%s exited uncleanly after SIGTERM: %v", nd.name, err)
			}
		case <-time.After(30 * time.Second):
			fail("%s did not exit within 30s of SIGTERM", nd.name)
		}
		if !strings.Contains(nd.log(), "clean shutdown") {
			fail("%s exited 0 but never logged a clean shutdown", nd.name)
		}
	}

	log.Printf("%v cluster soak (%d nodes, victim %s): %d ok (%d after retries), %d shed, %d streams error-trailed, %d mismatches, %d replication pulls",
		duration, n, victim.name, ok.Load(), retried.Load(), shed.Load(), streamErrTrailer.Load(), mismatches.Load(), pulls)
	log.Print(streamEngines.report())
	log.Print(cz.report())
	if mm := mismatches.Load(); mm > 0 {
		log.Fatalf("FAIL: %d oracle mismatches; first: %s", mm, <-firstMismatch)
	}
	if ok.Load() == 0 {
		log.Fatal("FAIL: no request ever succeeded — the soak measured nothing")
	}
	if err := cz.check(); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	if shed.Load() == 0 {
		log.Fatal("FAIL: a node was SIGKILLed mid-traffic yet nothing shed — the kill never bit")
	}
	log.Print("PASS")
}

// pickVictim asks the cluster where the dictionary lives and returns the
// index of its primary owner.
func pickVictim(nodes []*soakNode, id string, fail func(string, ...any)) int {
	status, body, err := postGet(nodes[0].base + "/v1/cluster")
	if err != nil || status != http.StatusOK {
		fail("cluster info: status %d err %v", status, err)
	}
	var info struct {
		Resident []struct {
			ID     string   `json:"id"`
			Owners []string `json:"owners"` // primary first
		} `json:"resident"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		fail("cluster info: %v", err)
	}
	primary := ""
	for _, res := range info.Resident {
		if res.ID == id && len(res.Owners) > 0 {
			primary = res.Owners[0]
		}
	}
	if primary == "" {
		// Node 0 does not hold it (it proxied the create); any owner works —
		// ask the ring via another node. Fall back to a warm owner scan.
		for _, nd := range nodes[1:] {
			status, body, err := postGet(nd.base + "/v1/cluster")
			if err != nil || status != http.StatusOK {
				continue
			}
			if err := json.Unmarshal(body, &info); err != nil {
				continue
			}
			for _, res := range info.Resident {
				if res.ID == id && len(res.Owners) > 0 {
					primary = res.Owners[0]
				}
			}
			if primary != "" {
				break
			}
		}
	}
	for i, nd := range nodes {
		if nd.name == primary {
			return i
		}
	}
	fail("no node reports dictionary %s resident — cannot pick a victim", id)
	return 0
}

func postGet(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

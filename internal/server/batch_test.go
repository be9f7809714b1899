package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
	"repro/internal/textgen"
)

// batchTestDicts builds the two dictionaries the equivalence suite serves:
// a planted matching dictionary and a prefix-closed parsing dictionary
// (CompressStatic needs the prefix property plus alphabet coverage). Both
// are registered with a fixed seed so two servers hold identical state.
func batchTestDicts() (matchPats, parsePats [][]byte, text []byte) {
	gen := textgen.New(4242)
	text, matchPats = gen.PlantedDictionary(1<<13, 24, 9, 97, 4)
	seen := map[string]bool{}
	for _, w := range []string{"abba", "bab", "caca", "cb", "ac"} {
		for i := 1; i <= len(w); i++ {
			seen[w[:i]] = true
		}
	}
	for p := range seen {
		parsePats = append(parsePats, []byte(p))
	}
	return matchPats, parsePats, text
}

// registerPatterns registers patterns on a running server and returns the id.
func registerPatterns(t *testing.T, base string, patterns [][]byte) string {
	t.Helper()
	strs := make([]string, len(patterns))
	for i, p := range patterns {
		strs[i] = string(p)
	}
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": strs, "seed": 99})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created.ID
}

// batchEquivTexts is the mixed-size request load: empty, single-byte, odd
// small sizes, and a few big enough to exercise multi-window Step 1 runs,
// cycled to fill the request count.
func batchEquivTexts(text []byte, count int) [][]byte {
	sizes := []int{0, 1, 17, 130, 512, 2048, 60, 333}
	texts := make([][]byte, count)
	for i := range texts {
		n := sizes[i%len(sizes)]
		off := (i * 709) % (len(text) - n)
		texts[i] = text[off : off+n]
	}
	return texts
}

// parseTexts builds parseable texts over the {a,b,c} alphabet, plus one
// unparseable slice (contains 'z') to pin per-request error isolation.
func parseTexts(count int) [][]byte {
	gen := textgen.New(17)
	texts := make([][]byte, count)
	for i := range texts {
		raw := gen.Uniform(1+(i*37)%200, 3)
		for j := range raw {
			raw[j] += 'a'
		}
		texts[i] = raw
	}
	if count >= 3 {
		texts[2] = []byte("abz") // no parse: 'z' is outside the dictionary
	}
	return texts
}

// fireMatch posts one match request and returns status and body.
func fireMatch(t *testing.T, base, id string, text []byte) (int, []byte) {
	t.Helper()
	return postJSON(t, base+"/v1/dicts/"+id+"/match", map[string]any{"text": string(text)})
}

// TestBatchEquivalence is the acceptance suite for the coalescer: the same
// request load fired concurrently at a batch=on server and sequentially at a
// batch=off server must produce byte-identical response bodies, for match
// and parse, across batch sizes {1, 2, 7, 64}. With dense off both kinds of
// request are coalesced; with dense on the matches bypass the coalescer
// (TestBatchSkipsDenseEntries), so that leg pins "dense + -batch on ≡ solo"
// for them and the join for the parses.
func TestBatchEquivalence(t *testing.T) {
	matchPats, parsePats, text := batchTestDicts()
	for _, mode := range []string{DenseOff, DenseOn} {
		for _, k := range []int{1, 2, 7, 64} {
			t.Run(fmt.Sprintf("dense-%s/k%d", mode, k), func(t *testing.T) {
				cfgOn := Config{Addr: "127.0.0.1:0", Procs: 4, DenseMode: mode,
					BatchMode: BatchOn, BatchMaxRequests: k, BatchMaxDelay: 20 * time.Millisecond}
				cfgOff := Config{Addr: "127.0.0.1:0", Procs: 4, DenseMode: mode, BatchMode: BatchOff}
				_, baseOn, downOn := startServer(t, cfgOn)
				defer func() {
					if err := downOn(); err != nil {
						t.Errorf("shutdown: %v", err)
					}
				}()
				_, baseOff, downOff := startServer(t, cfgOff)
				defer func() {
					if err := downOff(); err != nil {
						t.Errorf("shutdown: %v", err)
					}
				}()
				matchOn := registerPatterns(t, baseOn, matchPats)
				matchOff := registerPatterns(t, baseOff, matchPats)
				parseOn := registerPatterns(t, baseOn, parsePats)
				parseOff := registerPatterns(t, baseOff, parsePats)

				mTexts := batchEquivTexts(text, 64)
				pTexts := parseTexts(24)

				type result struct {
					status int
					body   []byte
				}
				gotM := make([]result, len(mTexts))
				gotP := make([]result, len(pTexts))
				var wg sync.WaitGroup
				for i, tx := range mTexts {
					wg.Add(1)
					go func(i int, tx []byte) {
						defer wg.Done()
						st, body := fireMatch(t, baseOn, matchOn, tx)
						gotM[i] = result{st, body}
					}(i, tx)
				}
				for i, tx := range pTexts {
					wg.Add(1)
					go func(i int, tx []byte) {
						defer wg.Done()
						st, body := postJSON(t, baseOn+"/v1/dicts/"+parseOn+"/parse", map[string]any{"text": string(tx)})
						gotP[i] = result{st, body}
					}(i, tx)
				}
				wg.Wait()

				for i, tx := range mTexts {
					st, body := fireMatch(t, baseOff, matchOff, tx)
					if gotM[i].status != st || !bytes.Equal(gotM[i].body, body) {
						t.Fatalf("match request %d (%d bytes): batched (%d) %s != solo (%d) %s",
							i, len(tx), gotM[i].status, gotM[i].body, st, body)
					}
				}
				for i, tx := range pTexts {
					st, body := postJSON(t, baseOff+"/v1/dicts/"+parseOff+"/parse", map[string]any{"text": string(tx)})
					if gotP[i].status != st || !bytes.Equal(gotP[i].body, body) {
						t.Fatalf("parse request %d (%d bytes): batched (%d) %s != solo (%d) %s",
							i, len(tx), gotP[i].status, gotP[i].body, st, body)
					}
				}
			})
		}
	}
}

// TestBatchDeadline503 pins the queued-deadline contract: a request whose
// per-request deadline expires while waiting for its batch to dispatch
// answers 503 with Retry-After — it does not hang until the batch timer.
func TestBatchDeadline503(t *testing.T) {
	matchPats, _, text := batchTestDicts()
	cfg := Config{Addr: "127.0.0.1:0", Procs: 2, DenseMode: DenseOff,
		BatchMode: BatchOn, BatchMaxRequests: 100, BatchMaxDelay: 10 * time.Second,
		RequestTimeout: 100 * time.Millisecond}
	_, base, shutdown := startServer(t, cfg)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	id := registerPatterns(t, base, matchPats)

	body, _ := json.Marshal(map[string]any{"text": string(text[:64])})
	start := time.Now()
	resp, err := http.Post(base+"/v1/dicts/"+id+"/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if wait := time.Since(start); wait > 5*time.Second {
		t.Fatalf("deadline response took %v; waited for the batch timer", wait)
	}
}

// TestBatchAutoRoutesLargeSolo: in mode auto a text at or above the shard
// threshold bypasses the coalescer and is counted as a solo fallback.
func TestBatchAutoRoutesLargeSolo(t *testing.T) {
	matchPats, _, _ := batchTestDicts()
	cfg := Config{Addr: "127.0.0.1:0", Procs: 2, DenseMode: DenseOff, BatchMode: BatchAuto}
	srv, base, shutdown := startServer(t, cfg)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	id := registerPatterns(t, base, matchPats)
	big := bytes.Repeat([]byte("abcd"), minShardLen/4) // exactly minShardLen bytes
	if st, body := fireMatch(t, base, id, big); st != http.StatusOK {
		t.Fatalf("large match: %d %s", st, body)
	}
	if got := srv.Metrics().batchSolo.Load(); got != 1 {
		t.Fatalf("batchSolo = %d, want 1", got)
	}
	if got := srv.Metrics().batchBatches.Load(); got != 0 {
		t.Fatalf("batchBatches = %d, want 0 (large text must not batch)", got)
	}
}

// TestBatchMetricsSection is the e2e /metrics check: a concurrent burst of
// small requests through a batch=on server populates the batch section —
// batches formed, occupancy, coalesced bytes, and the delay histogram.
func TestBatchMetricsSection(t *testing.T) {
	matchPats, _, text := batchTestDicts()
	cfg := Config{Addr: "127.0.0.1:0", Procs: 4, DenseMode: DenseOff,
		BatchMode: BatchOn, BatchMaxRequests: 8, BatchMaxDelay: 20 * time.Millisecond}
	_, base, shutdown := startServer(t, cfg)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	id := registerPatterns(t, base, matchPats)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if st, body := fireMatch(t, base, id, text[i*64:i*64+64]); st != http.StatusOK {
				t.Errorf("match %d: %d %s", i, st, body)
			}
		}(i)
	}
	wg.Wait()
	var snap MetricsSnapshot
	if st := getJSON(t, base+"/metrics", &snap); st != http.StatusOK {
		t.Fatalf("/metrics: %d", st)
	}
	b := snap.Batch
	if b.Mode != BatchOn {
		t.Fatalf("batch mode %q, want %q", b.Mode, BatchOn)
	}
	if b.Requests != 32 {
		t.Fatalf("batch requests %d, want 32", b.Requests)
	}
	if b.Batches < 1 || b.Batches > 32 {
		t.Fatalf("batches %d, want within [1, 32]", b.Batches)
	}
	if b.MeanOccupancy <= 0 {
		t.Fatalf("mean occupancy %f, want > 0", b.MeanOccupancy)
	}
	if b.CoalescedBytes != 32*64 {
		t.Fatalf("coalesced bytes %d, want %d", b.CoalescedBytes, 32*64)
	}
	var delays int64
	for _, c := range b.DelayHistPow2Micros {
		delays += c
	}
	if delays != b.Requests {
		t.Fatalf("delay histogram holds %d samples, want %d", delays, b.Requests)
	}
}

// TestBatchRejectsBadMode: an unknown BatchMode fails construction.
func TestBatchRejectsBadMode(t *testing.T) {
	if _, err := New(Config{BatchMode: "sometimes", Log: quietLogger()}); err == nil {
		t.Fatal("New accepted BatchMode=sometimes")
	}
}

// burst64 fires 64 concurrent 64-byte matches and returns the bodies.
func burst64(t *testing.T, base, id string, text []byte) [][]byte {
	t.Helper()
	bodies := make([][]byte, 64)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, body := fireMatch(t, base, id, text[i*64:i*64+64])
			if st != http.StatusOK {
				t.Errorf("match %d: %d %s", i, st, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	return bodies
}

// TestBatchSkipsDenseEntries pins the first selection: coalescing is a
// tree-walk optimisation. 64 concurrent 64 B clients against a dense entry
// under -batch on form no batch at all, are answered exactly as under
// -batch off, and are still counted and oracle-sampled as dense requests
// (request 1 and request 64); the same clients against a -dense=off server
// still coalesce.
func TestBatchSkipsDenseEntries(t *testing.T) {
	matchPats, _, text := batchTestDicts()
	start := func(dense, batch string) (*Server, string, string) {
		srv, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 4, DenseMode: dense,
			BatchMode: batch, BatchMaxRequests: 8, BatchMaxDelay: 20 * time.Millisecond})
		t.Cleanup(func() {
			if err := shutdown(); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
		return srv, base, registerPatterns(t, base, matchPats)
	}

	srv, base, id := start(DenseOn, BatchOn)
	got := burst64(t, base, id, text)
	_, baseOff, idOff := start(DenseOn, BatchOff)
	for i := range got {
		_, want := fireMatch(t, baseOff, idOff, text[i*64:i*64+64])
		if !bytes.Equal(got[i], want) {
			t.Fatalf("request %d: -batch on %s != -batch off %s", i, got[i], want)
		}
		if !bytes.Contains(got[i], []byte(`"engine":"dense"`)) {
			t.Fatalf("request %d not served by the dense engine: %s", i, got[i])
		}
	}
	snap := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter())
	if b := snap.Batch; b.Batches != 0 || b.Requests != 0 || b.SoloFallbacks != 64 {
		t.Fatalf("dense entry under -batch on: %+v, want no batch and 64 solo", b)
	}
	if d := snap.Dense; d.Served != 64 || d.VerifyPass != 2 || d.VerifyFail != 0 {
		t.Fatalf("dense counters: %+v, want 64 served and oracle turns on request 1 and 64", d)
	}

	srvTree, baseTree, idTree := start(DenseOff, BatchOn)
	burst64(t, baseTree, idTree, text)
	if b := srvTree.Metrics().Snapshot(srvTree.Registry(), srvTree.Limiter()).Batch; b.Requests != 64 || b.MeanOccupancy <= 1 {
		t.Fatalf("-dense=off under -batch on: %+v, want 64 coalesced requests at occupancy > 1", b)
	}
}

// TestBatchBeforeCompilePublishes: under -dense auto a match that arrives
// before the background compile has published finds no automaton, so it is
// coalesced and served by the tree walk; once the automaton is there the
// next one bypasses the coalescer.
func TestBatchBeforeCompilePublishes(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 2, DenseMode: DenseAuto,
		BatchMode: BatchOn, BatchMaxRequests: 2, BatchMaxDelay: 10 * time.Second})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	patterns := [][]byte{[]byte("abra"), []byte("cad")}
	e := registerWithAutomaton(srv, patterns, nil) // compile pending

	// Two requests fill the batch; a lone one would sit out the 10 s delay.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, body := fireMatch(t, base, e.ID, []byte("abracadabra"))
			if st != http.StatusOK || !bytes.Contains(body, []byte(`"engine":"tree"`)) || !bytes.Contains(body, []byte(`"matched":3`)) {
				t.Errorf("before publish: %d %s", st, body)
			}
		}()
	}
	wg.Wait()
	if b := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter()).Batch; b.Batches != 1 || b.Requests != 2 {
		t.Fatalf("before publish: %+v, want one batch of two", b)
	}

	aut, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.denseAut.Store(aut)
	st, body := fireMatch(t, base, e.ID, []byte("abracadabra"))
	if st != http.StatusOK || !bytes.Contains(body, []byte(`"engine":"dense"`)) || !bytes.Contains(body, []byte(`"matched":3`)) {
		t.Fatalf("after publish: %d %s", st, body)
	}
	if b := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter()).Batch; b.Batches != 1 || b.SoloFallbacks != 1 {
		t.Fatalf("after publish: %+v, want still one batch and one solo", b)
	}
}

// Fuzzing -------------------------------------------------------------------

var (
	fuzzBatchOnce sync.Once
	fuzzBatchSrv  *Server
	fuzzSoloSrv   *Server
	fuzzBatchID   string
	fuzzBatchErr  error
)

// fuzzServers lazily builds one batch=on and one batch=off server sharing an
// identical registered dictionary, driven in-process through Handler().
func fuzzServers() error {
	fuzzBatchOnce.Do(func() {
		matchPats, _, _ := batchTestDicts()
		mk := func(mode string) (*Server, string, error) {
			srv, err := New(Config{Procs: 4, DenseMode: DenseOff, BatchMode: mode,
				BatchMaxRequests: 4, BatchMaxDelay: 5 * time.Millisecond, Log: quietLogger()})
			if err != nil {
				return nil, "", err
			}
			m := pram.New(2)
			defer m.Close()
			e, _ := insertPreprocessed(srv.Registry(), m, matchPats, core.Options{Seed: 99})
			return srv, e.ID, nil
		}
		var idOn, idOff string
		fuzzBatchSrv, idOn, fuzzBatchErr = mk(BatchOn)
		if fuzzBatchErr != nil {
			return
		}
		fuzzSoloSrv, idOff, fuzzBatchErr = mk(BatchOff)
		if fuzzBatchErr != nil {
			return
		}
		if idOn != idOff {
			fuzzBatchErr = fmt.Errorf("dict ids diverged: %s vs %s", idOn, idOff)
			return
		}
		fuzzBatchID = idOn
	})
	return fuzzBatchErr
}

// serveOnce drives one match request through a server's full handler stack.
func serveOnce(srv *Server, id string, text []byte) (int, string) {
	body, _ := json.Marshal(map[string]any{"textB64": base64.StdEncoding.EncodeToString(text)})
	req := httptest.NewRequest(http.MethodPost, "/v1/dicts/"+id+"/match", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// FuzzBatchEquivalence fires up to four fuzz-derived texts concurrently at
// the batch=on server and compares every response byte-for-byte with the
// batch=off server's answer for the same text.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add([]byte("abcd"), []byte(""), []byte("aaaa"), uint8(4))
	f.Add([]byte("cacb"), []byte("x"), []byte("ababab"), uint8(2))
	f.Add(bytes.Repeat([]byte("ab"), 300), []byte("q"), []byte("b"), uint8(3))
	f.Fuzz(func(t *testing.T, a, b, c []byte, n uint8) {
		if err := fuzzServers(); err != nil {
			t.Fatal(err)
		}
		parts := [][]byte{a, b, c, append(a, c...)}
		count := int(n)%4 + 1
		texts := make([][]byte, count)
		for i := range texts {
			tx := parts[i%len(parts)]
			if len(tx) > 2048 {
				tx = tx[:2048]
			}
			texts[i] = tx
		}
		type result struct {
			status int
			body   string
		}
		got := make([]result, count)
		var wg sync.WaitGroup
		for i, tx := range texts {
			wg.Add(1)
			go func(i int, tx []byte) {
				defer wg.Done()
				st, body := serveOnce(fuzzBatchSrv, fuzzBatchID, tx)
				got[i] = result{st, body}
			}(i, tx)
		}
		wg.Wait()
		for i, tx := range texts {
			st, body := serveOnce(fuzzSoloSrv, fuzzBatchID, tx)
			if got[i].status != st || got[i].body != body {
				t.Fatalf("text %d (%d bytes): batched (%d) %s != solo (%d) %s",
					i, len(tx), got[i].status, got[i].body, st, body)
			}
		}
	})
}

package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/stream"
	"repro/internal/textgen"
)

// densePatternStrings builds a planted workload and its string form for the
// JSON create payload.
func densePatternStrings(t *testing.T, seed uint64) ([]byte, [][]byte, []string) {
	t.Helper()
	gen := textgen.New(seed)
	text, patterns := gen.PlantedDictionary(1<<16, 16, 6, 97, 4)
	strs := make([]string, len(patterns))
	for i, p := range patterns {
		strs[i] = string(p)
	}
	return text, patterns, strs
}

// TestDenseServingEndToEnd: with -dense=on the match endpoint answers from
// the compiled automaton ("engine": "dense"), results agree with the
// independent oracle, and the /metrics dense section populates every counter
// the serving path touches.
func TestDenseServingEndToEnd(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 2, MaxDicts: 4, MaxInflight: 64, DenseMode: DenseOn,
	})
	text, patterns, strs := densePatternStrings(t, 77)

	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": strs})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	ac := ahocorasick.New(patterns)
	oracle := ac.Match(text)
	wantHits := 0
	for _, id := range oracle {
		if id >= 0 {
			wantHits++
		}
	}

	for req := 0; req < 3; req++ {
		status, body = postJSON(t, base+"/v1/dicts/"+created.ID+"/match", map[string]string{"text": string(text)})
		if status != http.StatusOK {
			t.Fatalf("match: %d %s", status, body)
		}
		var mr matchResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Engine != engineDense {
			t.Fatalf("request %d served by %q, want %q", req, mr.Engine, engineDense)
		}
		if mr.Matched != wantHits {
			t.Fatalf("request %d: %d hits, oracle says %d", req, mr.Matched, wantHits)
		}
		for _, h := range mr.Hits {
			if id := oracle[h.Pos]; id < 0 || int(ac.PatternLen(id)) != h.Length {
				t.Fatalf("hit at %d (len %d) disagrees with oracle id %d", h.Pos, h.Length, id)
			}
		}
	}

	var snap MetricsSnapshot
	if code := getJSON(t, base+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	d := snap.Dense
	if d.Served < 3 {
		t.Fatalf("dense.served = %d, want >= 3", d.Served)
	}
	if d.Compiles != 1 || d.CompileNanos <= 0 || d.TableBytes <= 0 {
		t.Fatalf("compile counters: %+v", d)
	}
	if d.VerifyPass < 1 || d.VerifyFail != 0 {
		t.Fatalf("verify counters: pass=%d fail=%d", d.VerifyPass, d.VerifyFail)
	}
	if d.Loads != 0 || d.Fallback != 0 {
		t.Fatalf("unexpected loads=%d fallback=%d", d.Loads, d.Fallback)
	}
	_ = srv
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDenseModeOff: the flag really disables the path.
func TestDenseModeOff(t *testing.T) {
	_, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOff,
	})
	_, _, strs := densePatternStrings(t, 3)
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": strs})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	status, body = postJSON(t, base+"/v1/dicts/"+created.ID+"/match", map[string]string{"text": "abcd"})
	if status != http.StatusOK {
		t.Fatalf("match: %d %s", status, body)
	}
	var mr matchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Engine != engineTree {
		t.Fatalf("engine = %q with dense off", mr.Engine)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDenseAutoBackgroundCompile: in auto mode the automaton lands via the
// background election and subsequent requests use it.
func TestDenseAutoBackgroundCompile(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseAuto,
	})
	_, _, strs := densePatternStrings(t, 5)
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": strs})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	e, ok := srv.Registry().Get(created.ID)
	if !ok {
		t.Fatal("entry missing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.denseAut.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background dense compile did not land within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	status, body = postJSON(t, base+"/v1/dicts/"+created.ID+"/match", map[string]string{"text": "xyz"})
	if status != http.StatusOK {
		t.Fatalf("match: %d %s", status, body)
	}
	var mr matchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Engine != engineDense {
		t.Fatalf("engine = %q after background compile", mr.Engine)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWaitsForBackgroundCompile: Close returns only when the background
// dense compile a registration started — and its snapshot upgrade in the
// cache directory — are over. Registered under -dense auto and closed at
// once, the server leaves no compileDense goroutine and an upgraded,
// quiescent cache directory behind, and starts no compile afterwards.
func TestCloseWaitsForBackgroundCompile(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Procs: 1, DenseMode: DenseAuto, CacheDir: dir, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	// Large enough that the compile is still running when Close is called.
	patterns := textgen.New(77).Dictionary(2000, 16, 32, 64)
	strs := make([]string, len(patterns))
	for i, p := range patterns {
		strs[i] = string(p)
	}
	body, _ := json.Marshal(map[string]any{"patterns": strs})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/dicts", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("dict create: %d %s", rec.Code, rec.Body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	e, _ := srv.Registry().Get(created.ID)

	srv.Close()

	if e.denseAut.Load() == nil {
		t.Fatal("Close returned before the background compile published")
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if bytes.Contains(stacks, []byte("compileDense")) {
		t.Fatalf("a compileDense goroutine outlived Close:\n%s", stacks)
	}
	listing := func() string {
		var b strings.Builder
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s %d %v\n", path, info.Size(), info.ModTime())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := listing()
	if got := srv.Metrics().snapshotSaves.Load(); got != 2 {
		t.Fatalf("%d snapshot writes before Close returned, want 2 (create + dense upgrade)", got)
	}
	time.Sleep(100 * time.Millisecond)
	if after := listing(); after != before {
		t.Fatalf("cache directory changed after Close:\nbefore:\n%safter:\n%s", before, after)
	}

	// A closed server starts no background work: the entry stays on the tree.
	late, _ := insertPreprocessed(srv.Registry(), pram.NewSequential(), patterns[:8], core.Options{})
	srv.armDense(late, nil)
	time.Sleep(20 * time.Millisecond)
	if late.denseAut.Load() != nil {
		t.Fatal("a compile ran after Close")
	}
}

// TestDenseVerifyDivergence: a wrong automaton planted on an entry is caught
// by the first-request oracle check; the oracle's result is served (engine
// "reference" — no tree ran, so the match and check ledgers hold the dense
// scan alone) and the failure counted.
func TestDenseVerifyDivergence(t *testing.T) {
	srv, err := New(Config{Procs: 1, DenseMode: DenseAuto, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]byte{[]byte("abc"), []byte("bcd")}
	e, _ := insertPreprocessed(srv.Registry(), pram.NewSequential(), patterns, core.Options{})
	// Same pattern count (ids stay in range for the comparison), different
	// content — the automaton will disagree with the dictionary.
	wrong, err := dense.Compile([][]byte{[]byte("zzz"), []byte("qqq")}, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.denseElect.Store(true)
	e.denseAut.Store(wrong)

	text := []byte("xabcdx")
	evs, _, engine, err := srv.serveMatch(context.Background(), e, text, nil)
	if err != nil {
		t.Fatal(err)
	}
	if engine != engineReference {
		t.Fatalf("divergent result served by %q, want %q", engine, engineReference)
	}
	if want := []stream.MatchEvent{{Pos: 1, PatternID: 0, Length: 3}, {Pos: 2, PatternID: 1, Length: 3}}; !slices.Equal(evs, want) {
		t.Fatalf("oracle result not served: events %+v, want %+v", evs, want)
	}
	if srv.Metrics().denseVerifyFail.Load() != 1 {
		t.Fatalf("verifyFail = %d, want 1", srv.Metrics().denseVerifyFail.Load())
	}
	snap := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter())
	if m, c := snap.PRAM["match"], snap.PRAM["check"]; m.Ops != 1 || m.Work != int64(len(text)) || c.Ops != 0 {
		t.Fatalf("sampled dense turn charged match=%+v check=%+v, want the %d-byte dense scan only", m, c, len(text))
	}

	// A cancelled request does not start the (uninterruptible) reference scan.
	e.denseReqs.Store(verifySampleEvery - 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := srv.serveMatch(ctx, e, text, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("sampled turn under a cancelled context: err = %v", err)
	}
	if n := srv.Metrics().denseVerifyFail.Load(); n != 1 {
		t.Fatalf("verifyFail = %d after a cancelled turn, want 1", n)
	}
}

// TestDenseServesDegradedEntry: neither the compiled automaton nor the
// reference oracle carries Las Vegas fingerprint state, so an entry whose
// tree walk has tripped the breaker keeps answering 200 from the dense path,
// on all three routes — and its first request on each is still verified.
// With dense off the same entry 503s — TestDegradedEntryServes503 pins that
// side.
func TestDenseServesDegradedEntry(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOn,
	})
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": []string{"abra", "cad"}})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	e, ok := srv.Registry().Get(created.ID)
	if !ok {
		t.Fatal("entry missing")
	}
	e.degraded.Store(true)

	status, body = postJSON(t, base+"/v1/dicts/"+created.ID+"/match", map[string]string{"text": "abracadabra"})
	if status != http.StatusOK {
		t.Fatalf("degraded match with dense: %d %s, want 200", status, body)
	}
	var mr matchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Engine != engineDense || mr.Matched != 3 {
		t.Fatalf("degraded entry: engine=%q matched=%d", mr.Engine, mr.Matched)
	}
	if n := srv.Metrics().denseVerifyPass.Load(); n != 1 {
		t.Fatalf("denseVerifyPass = %d after a degraded entry's first dense request, want 1", n)
	}

	var container bytes.Buffer
	if err := lz.EncodeStream(&container, lz.Compress(pram.NewSequential(), []byte("abracadabra"))); err != nil {
		t.Fatal(err)
	}
	status, body = postJSON(t, base+"/v1/dicts/"+created.ID+"/match/compressed/buffered",
		map[string]string{"dataB64": base64.StdEncoding.EncodeToString(container.Bytes())})
	var cr matchCompressedResponse
	if err := json.Unmarshal(body, &cr); err != nil || status != http.StatusOK || cr.Matched != 3 {
		t.Fatalf("degraded compressed match: %d %s (%v)", status, body, err)
	}
	if n := srv.Metrics().czVerifyPass.Load(); n != 1 {
		t.Fatalf("czVerifyPass = %d after a degraded entry's first compressed request, want 1", n)
	}
	if n := srv.Metrics().oracleBuilds.Load(); n != 1 {
		t.Fatalf("oracleBuilds = %d, want 1 — the routes share one reference", n)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDenseSnapshotWarmStart is the acceptance criterion for persistence: a
// DENSE-bearing snapshot written by one server boots into another with the
// automaton restored — zero compiles, zero preprocess PRAM work charged.
func TestDenseSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	_, _, strs := densePatternStrings(t, 11)

	srvA, baseA, shutdownA := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOn, CacheDir: dir,
	})
	status, body := postJSON(t, baseA+"/v1/dicts", map[string]any{"patterns": strs})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	if n := srvA.Metrics().denseCompiles.Load(); n != 1 {
		t.Fatalf("server A compiles = %d, want 1", n)
	}
	if err := shutdownA(); err != nil {
		t.Fatal(err)
	}

	_, baseB, shutdownB := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOn, CacheDir: dir,
	})
	var infos struct {
		Dicts []EntryInfo `json:"dicts"`
	}
	if code := getJSON(t, baseB+"/v1/dicts", &infos); code != http.StatusOK || len(infos.Dicts) != 1 {
		t.Fatalf("warm start registry: code=%d dicts=%d", code, len(infos.Dicts))
	}
	status, body = postJSON(t, baseB+"/v1/dicts/"+infos.Dicts[0].ID+"/match", map[string]string{"text": strs[0] + "xx" + strs[1]})
	if status != http.StatusOK {
		t.Fatalf("match on warm-started server: %d %s", status, body)
	}
	var mr matchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Engine != engineDense {
		t.Fatalf("warm-started entry served by %q, want %q", mr.Engine, engineDense)
	}

	var snap MetricsSnapshot
	if code := getJSON(t, baseB+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if snap.Dense.Loads != 1 || snap.Dense.Compiles != 0 {
		t.Fatalf("server B dense: loads=%d compiles=%d, want 1/0", snap.Dense.Loads, snap.Dense.Compiles)
	}
	if prep := snap.PRAM["preprocess"]; prep.Work != 0 {
		t.Fatalf("warm start charged %d preprocess work, want 0", prep.Work)
	}
	if err := shutdownB(); err != nil {
		t.Fatal(err)
	}
}

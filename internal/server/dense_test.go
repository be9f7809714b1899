package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ahocorasick"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/persist"
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

// TestCreatePublishesDense: POST /v1/dicts answers only once the entry is
// published with its automaton, so GET right after the 201 reports it — no
// polling — and the first /match is already served by the dense engine.
func TestCreatePublishesDense(t *testing.T) {
	_, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 1}) // default -dense on
	text, _, strs := densePatternStrings(t, 5)
	id := createDict(t, base, strs...)
	var info EntryInfo
	if code := getJSON(t, base+"/v1/dicts/"+id, &info); code != http.StatusOK || !info.Dense || info.DenseStates == 0 {
		t.Fatalf("GET right after the 201: code %d, info %+v, want a live automaton", code, info)
	}
	status, body := fireMatch(t, base, id, text[:4096])
	var mr matchResponse
	if err := json.Unmarshal(body, &mr); err != nil || status != http.StatusOK || mr.Engine != engineDense {
		t.Fatalf("first match: %d %s (%v), want engine %q", status, clip(body), err, engineDense)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// createVia registers patterns through srv's handler and returns the reply.
func createVia(t *testing.T, srv *Server, strs []string) dictCreateResponse {
	t.Helper()
	body, err := json.Marshal(map[string]any{"patterns": strs})
	if err != nil {
		t.Fatal(err)
	}
	rec := serveRoute(srv.Handler(), http.MethodPost, "/v1/dicts", body)
	var created dictCreateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || rec.Code != http.StatusCreated {
		t.Fatalf("dict create: %d %s (%v)", rec.Code, rec.Body, err)
	}
	return created
}

// storedHasDense reports whether the store's file under key carries DENSE.
func storedHasDense(t *testing.T, store *persist.Store, key persist.Key) bool {
	t.Helper()
	data, err := os.ReadFile(store.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := persist.HasDense(data)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestCreateWritesOneDenseSnapshot: with a cache directory one create is one
// snapshot write, and the file it writes already carries the DENSE section.
func TestCreateWritesOneDenseSnapshot(t *testing.T) {
	srv, err := New(Config{Procs: 1, CacheDir: t.TempDir(), Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	_, _, strs := densePatternStrings(t, 13)
	created := createVia(t, srv, strs)
	if n := srv.Metrics().snapshotSaves.Load(); n != 1 {
		t.Fatalf("%d snapshot writes for one create, want 1", n)
	}
	key, ok := keyFromID(created.SnapshotKey)
	if !ok {
		t.Fatalf("create reply has no snapshot key: %+v", created)
	}
	if !storedHasDense(t, srv.Store(), key) {
		t.Fatal("the create's snapshot has no DENSE section")
	}
}

// TestWarmStartCompilesDenselessBundleOnce: a bundle written without DENSE
// warm-starts with an automaton compiled before the entry is
// published and is rewritten once, with DENSE, so the next boot loads the
// automaton and compiles nothing. An explicit restore of a DENSE-less
// snapshot compiles too, but never rewrites: its key is the hash of its
// bytes.
func TestWarmStartCompilesDenselessBundleOnce(t *testing.T) {
	dir := t.TempDir()
	_, patterns, _ := densePatternStrings(t, 17)
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := persist.KeyFor(patterns, core.Options{})
	data := (&persist.Bundle{Patterns: patterns}).Encode()
	if _, err := store.PutBytes(key, data); err != nil {
		t.Fatal(err)
	}
	boot := func(wantCompiles, wantLoads, wantSaves int64) *Server {
		t.Helper()
		srv, err := New(Config{Procs: 1, CacheDir: dir, Log: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		infos := srv.Registry().Infos()
		d := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter()).Dense
		if len(infos) != 1 || !infos[0].Dense || d.Compiles != wantCompiles || d.Loads != wantLoads {
			t.Fatalf("warm start: infos %+v, compiles %d loads %d, want dense and %d/%d", infos, d.Compiles, d.Loads, wantCompiles, wantLoads)
		}
		if n := srv.Metrics().snapshotSaves.Load(); n != wantSaves {
			t.Fatalf("warm start wrote %d snapshots, want %d", n, wantSaves)
		}
		return srv
	}
	boot(1, 0, 1).Close()
	if !storedHasDense(t, store, key) {
		t.Fatal("the compiled bundle was not rewritten with DENSE")
	}
	srv := boot(0, 1, 0)
	defer srv.Close()

	snapKey := persist.KeyForSnapshot(data)
	if _, err := store.PutBytes(snapKey, data); err != nil {
		t.Fatal(err)
	}
	rec := serveRoute(srv.Handler(), http.MethodPost, "/v1/dicts/restore", []byte(`{"key":"`+snapKey.String()+`"}`))
	var restored dictCreateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &restored); err != nil || rec.Code != http.StatusCreated {
		t.Fatalf("restore: %d %s (%v)", rec.Code, rec.Body, err)
	}
	if e, ok := srv.Registry().Get(restored.ID); !ok || e.aut.Load() == nil || srv.Metrics().denseCompiles.Load() != 1 {
		t.Fatal("a restored DENSE-less snapshot was published without a compiled automaton")
	}
	if srv.Metrics().snapshotSaves.Load() != 0 || storedHasDense(t, store, snapKey) {
		t.Fatal("an explicit snapshot was rewritten")
	}
}

// TestWarmStartUpgradesTablesFormCache: a cache written before the automaton
// form — persist's golden §3-form file, under the key a create of its
// patterns at seed 42 derives — warm-starts from the cache. The entry is
// published with source "cache", its automaton is compiled once and answers
// /match with the reference's hits, and the file is rewritten once, in the
// automaton form. A second boot compiles nothing.
func TestWarmStartUpgradesTablesFormCache(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "persist", "testdata", "golden_v1.dmsnap"))
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]byte{[]byte("banana"), []byte("ana"), []byte("nab"), []byte("b"), []byte("abracadabra"), []byte("cad")}
	dir := t.TempDir()
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := persist.KeyFor(patterns, core.Options{Seed: 42})
	if err := os.WriteFile(store.Path(key), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := bundleSections(t, store, key); got != "[header patterns tree weiner step2 separator]" {
		t.Fatalf("the fixture is not in the §3 form: %s", got)
	}
	boot := func(wantCompiles, wantSaves int64) *Server {
		t.Helper()
		srv, err := New(Config{Procs: 1, CacheDir: dir, Log: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		infos := srv.Registry().Infos()
		d := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter()).Dense
		if len(infos) != 1 || infos[0].Source != "cache" || !infos[0].Dense || d.Compiles != wantCompiles {
			t.Fatalf("warm start: infos %+v, %d compiles; want one dense cache entry and %d", infos, d.Compiles, wantCompiles)
		}
		if n := srv.Metrics().snapshotSaves.Load(); n != wantSaves {
			t.Fatalf("warm start wrote %d snapshots, want %d", n, wantSaves)
		}
		return srv
	}

	srv := boot(1, 1)
	text := bytes.Repeat([]byte("xxbananabracadabranabxcadabana"), 40)
	rec := serveRoute(srv.Handler(), http.MethodPost, "/v1/dicts/"+srv.Registry().Infos()[0].ID+"/match", b64Body(text))
	var mr matchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil || mr.Engine != engineDense {
		t.Fatalf("match: %d %s (%v), want engine dense", rec.Code, clip(rec.Body.Bytes()), err)
	}
	ac := ahocorasick.New(patterns)
	i := 0
	for pos, pid := range ac.Match(text) {
		if pid < 0 {
			continue
		}
		if i >= len(mr.Hits) || mr.Hits[i] != (matchHit{Pos: pos, Pattern: int(pid), Length: int(ac.PatternLen(pid))}) {
			t.Fatalf("hit %d diverges from the reference at position %d", i, pos)
		}
		i++
	}
	if i != len(mr.Hits) || i == 0 {
		t.Fatalf("%d hits, reference %d", len(mr.Hits), i)
	}
	srv.Close()
	if !storedHasDense(t, store, key) {
		t.Fatal("the upgraded file has no DENSE section")
	}
	if got := bundleSections(t, store, key); got != "[header patterns dense]" {
		t.Fatalf("the upgraded file's sections are %s, want header, patterns, dense", got)
	}
	boot(0, 0).Close()
}

// TestDenseOffIgnoresDenseBundle: a DENSE bundle warm-started under -dense
// off is published without its automaton, so GET /v1/dicts reports
// dense:false — the tree walk is what serves it, and /match says so.
func TestDenseOffIgnoresDenseBundle(t *testing.T) {
	dir := t.TempDir()
	on, err := New(Config{Procs: 1, CacheDir: dir, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	text, _, strs := densePatternStrings(t, 19)
	createVia(t, on, strs)
	on.Close()

	off, err := New(Config{Procs: 1, CacheDir: dir, DenseMode: DenseOff, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	rec := serveRoute(off.Handler(), http.MethodGet, "/v1/dicts", nil)
	var list struct {
		Dicts []EntryInfo `json:"dicts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list.Dicts) != 1 {
		t.Fatalf("GET /v1/dicts: %d %s (%v)", rec.Code, rec.Body, err)
	}
	if info := list.Dicts[0]; info.Dense || info.DenseStates != 0 {
		t.Fatalf("dense off reports %+v, want dense:false", info)
	}
	rec = serveRoute(off.Handler(), http.MethodPost, "/v1/dicts/"+list.Dicts[0].ID+"/match", b64Body(text[:4096]))
	var mr matchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil || mr.Engine != engineTree {
		t.Fatalf("match under dense off: %d %s (%v), want engine %q", rec.Code, clip(rec.Body.Bytes()), err, engineTree)
	}
}

// TestOverBudgetServesTree: a dictionary whose table exceeds the budget is
// published without an automaton. All three match routes answer from the
// tree walk with the reference automaton's hits; the refused compile is
// counted once, dense.fallback counts the /match and /match/stream requests
// and czsearch.fallback the compressed one.
func TestOverBudgetServesTree(t *testing.T) {
	_, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 2, DenseMaxTableBytes: 64})
	text, patterns, strs := densePatternStrings(t, 23)
	id := createDict(t, base, strs...)

	ac := ahocorasick.New(patterns)
	var want []matchHit
	for pos, pid := range ac.Match(text) {
		if pid >= 0 {
			want = append(want, matchHit{Pos: pos, Length: int(ac.PatternLen(pid))})
		}
	}
	check := func(route, engine string, hits []matchHit) {
		t.Helper()
		if engine != engineTree || len(hits) != len(want) {
			t.Fatalf("%s: engine %q, %d hits; want %q, %d hits", route, engine, len(hits), engineTree, len(want))
		}
		for i, h := range hits {
			if h.Pos != want[i].Pos || h.Length != want[i].Length {
				t.Fatalf("%s: hit %d = %+v, reference %+v", route, i, h, want[i])
			}
		}
	}

	status, body := postJSON(t, base+"/v1/dicts/"+id+"/match", map[string]string{"textB64": base64.StdEncoding.EncodeToString(text)})
	var mr matchResponse
	if err := json.Unmarshal(body, &mr); err != nil || status != http.StatusOK {
		t.Fatalf("match: %d %s (%v)", status, clip(body), err)
	}
	check("/match", mr.Engine, mr.Hits)

	lines, trailer := streamLines(t, base+"/v1/dicts/"+id+"/match/stream", text)
	if trailer.Summary == nil {
		t.Fatalf("stream ended in an error trailer: %q", trailer.Error)
	}
	hits := make([]matchHit, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &hits[i]); err != nil {
			t.Fatal(err)
		}
	}
	check("/match/stream", trailer.Summary.Engine, hits)

	status, hits, summary, errLine := postCompressedStream(t, base+"/v1/dicts/"+id+"/match/compressed", compressPlanted(t, text))
	if status != http.StatusOK || summary == nil {
		t.Fatalf("compressed: %d %q", status, errLine)
	}
	check("/match/compressed", summary.Engine, hits)

	var snap MetricsSnapshot
	if code := getJSON(t, base+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if d := snap.Dense; d.CompileFails != 1 || d.Compiles != 0 || d.Fallback != 2 || d.Served != 0 {
		t.Fatalf("dense counters: %+v, want 1 refused compile and 2 fallbacks", d)
	}
	if snap.Cz.Fallback != 1 {
		t.Fatalf("czsearch.fallback = %d, want 1", snap.Cz.Fallback)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDenseVerifyDivergence: a wrong automaton planted on an entry fails its
// certificate on the first requests — four at once, which share one run
// (under -race) — and is recompiled from the patterns, certified again and
// answers them all: engine "dense" with ahocorasick's hits, and no tree ran,
// so the match ledger holds the dense scans alone. The failure is counted
// and logged once, and later requests serve the repaired table without
// another certificate.
func TestDenseVerifyDivergence(t *testing.T) {
	var logBuf syncBuffer
	srv, err := New(Config{Procs: 1, DenseMode: DenseOn, Log: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]byte{[]byte("abc"), []byte("bcd")}
	wrong, err := dense.Compile([][]byte{[]byte("zzz"), []byte("qqq")}, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := registerWithAutomaton(srv, patterns, wrong)

	text := []byte("xabcdx")
	want := []stream.MatchEvent{{Pos: 1, PatternID: 0, Length: 3}, {Pos: 2, PatternID: 1, Length: 3}}
	const first = 4
	var wg sync.WaitGroup
	for i := 0; i <= first; i++ {
		if i == first {
			wg.Wait() // the last request comes after the repair
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			evs, _, engine, err := srv.serveMatch(context.Background(), e, text, nil)
			if err != nil || engine != engineDense || !slices.Equal(evs, want) {
				t.Errorf("request: engine %q, events %+v, err %v — want dense with %+v", engine, evs, err, want)
			}
		}()
	}
	wg.Wait()
	mt := srv.Metrics()
	if e.aut.Load() == wrong || mt.certifyFail.Load() != 1 || mt.certified.Load() != 1 || mt.denseCompiles.Load() != 1 {
		t.Fatalf("repair: planted table still served %v, certifyFail %d, certified %d, compiles %d — want a swap, 1, 1, 1",
			e.aut.Load() == wrong, mt.certifyFail.Load(), mt.certified.Load(), mt.denseCompiles.Load())
	}
	if pass, fail := mt.denseVerifyPass.Load(), mt.denseVerifyFail.Load(); pass != 1 || fail != 0 {
		t.Fatalf("canary: pass %d, fail %d, want request 1's turn to pass", pass, fail)
	}
	snap := mt.Snapshot(srv.Registry(), srv.Limiter())
	if m, c := snap.PRAM["match"], snap.PRAM["check"]; m.Ops != first+1 || m.Work != (first+1)*int64(len(text)) || c.Ops != 0 {
		t.Fatalf("%d dense requests charged match=%+v check=%+v, want %d-byte dense scans only", first+1, m, c, len(text))
	}
	if n := strings.Count(logBuf.String(), "failed its certificate"); n != 1 {
		t.Fatalf("certificate failure logged %d times, want once; log: %q", n, logBuf.String())
	}
}

// TestDenseServesDegradedEntry: neither the compiled automaton nor the
// canary's walk carries Las Vegas fingerprint state, so an entry whose tree
// walk has tripped the breaker keeps answering 200 from the dense path, on
// all three routes — and its first request on each is still a canary turn.
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
	// One certificate for both routes.
	if c := srv.Metrics().certified.Load(); c != 1 {
		t.Fatalf("certified = %d, want 1", c)
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

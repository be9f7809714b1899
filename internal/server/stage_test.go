package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ahocorasick"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pram"
	"repro/internal/textgen"
)

// The §3 stage: an entry is published with its patterns, seed and automaton,
// and its core.Dictionary is built only when something asks for the tree.

// TestForcedTreeEqualsPreprocess: a forced stage is the dictionary an eager
// core.Preprocess builds — table for table — at seed 0, at a non-zero seed,
// and after a reseed, where the entry's snapshot records the new seed too.
func TestForcedTreeEqualsPreprocess(t *testing.T) {
	_, patterns, _ := densePatternStrings(t, 29)
	eager := func(seed uint64) *core.Dictionary {
		return core.Preprocess(pram.NewSequential(), patterns, core.Options{Seed: seed})
	}
	for _, seed := range []uint64{0, 0x5eed} {
		e, _ := NewRegistry(1).Insert("", patterns, core.Options{Seed: seed}, nil, "preprocess", "", 0)
		if e.Info().Tree {
			t.Fatalf("seed %d: the stage is built before anything asked for it", seed)
		}
		if !reflect.DeepEqual(e.tree(2, nil), eager(seed)) {
			t.Fatalf("seed %d: the forced stage differs from core.Preprocess", seed)
		}
		if !e.Info().Tree {
			t.Fatalf("seed %d: Info does not report the built stage", seed)
		}
		e.reseed(1, nil)
		e.mu.RLock()
		got, reseeded := e.tree(2, nil), e.seed
		e.mu.RUnlock()
		if reseeded == seed || !reflect.DeepEqual(got, eager(reseeded)) {
			t.Fatalf("seed %d: after a reseed to %d the stage differs from core.Preprocess", seed, reseeded)
		}
		d, _, err := persist.LoadBundle(e.SnapshotBytes())
		if err != nil || !reflect.DeepEqual(d, got) {
			t.Fatalf("seed %d: the snapshot after a reseed does not load to the stage (%v)", seed, err)
		}
	}
}

// prefixClosed returns a prefix-closed dictionary over "ab" and a text it
// parses: what /parse needs.
func prefixClosed() ([]string, string) {
	return []string{"a", "b", "ab", "aba", "abab", "ba", "bab"}, "abaabababbabaabab"
}

// TestTreeForcedOnce: eight concurrent /parse requests on an automaton-only
// entry share one build of its stage — the preprocess ledger counts one
// operation — and the entry, and /metrics, say the stage is built.
func TestTreeForcedOnce(t *testing.T) {
	srv, err := New(Config{Procs: 2, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pats, text := prefixClosed()
	id := createVia(t, srv, pats).ID
	snap := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter())
	if info := srv.Registry().Infos()[0]; !info.Dense || info.Tree || snap.Registry.TreeForced != 0 {
		t.Fatalf("after create: %+v, treeForced %d; want dense and no stage", info, snap.Registry.TreeForced)
	}
	body, _ := json.Marshal(map[string]string{"text": text})
	var wg sync.WaitGroup
	replies := make([]string, 8)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := serveRoute(srv.Handler(), http.MethodPost, "/v1/dicts/"+id+"/parse", body)
			replies[i] = fmt.Sprint(rec.Code, rec.Body.String())
		}(i)
	}
	wg.Wait()
	for _, r := range replies {
		if r != replies[0] || r[:3] != "200" {
			t.Fatalf("parse replies differ or failed: %q vs %q", r, replies[0])
		}
	}
	snap = srv.Metrics().Snapshot(srv.Registry(), srv.Limiter())
	if prep := snap.PRAM["preprocess"]; prep.Ops != 1 || prep.Work == 0 {
		t.Fatalf("preprocess ledger %+v after 8 concurrent parses, want one operation", prep)
	}
	if info := srv.Registry().Infos()[0]; !info.Tree || snap.Registry.TreeForced != 1 {
		t.Fatalf("after parse: %+v, treeForced %d; want the stage built", info, snap.Registry.TreeForced)
	}
}

// TestCreateRunsNoPreprocess: a create under -dense on compiles the
// automaton and runs no §3 preprocessing, and its write-through bundle
// carries header, patterns and DENSE — no §3 section.
func TestCreateRunsNoPreprocess(t *testing.T) {
	srv, err := New(Config{Procs: 2, CacheDir: t.TempDir(), Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, _, strs := densePatternStrings(t, 37)
	created := createVia(t, srv, strs)
	snap := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter())
	if prep := snap.PRAM["preprocess"]; prep.Ops != 0 || prep.Work != 0 {
		t.Fatalf("create charged preprocessing: %+v", prep)
	}
	if snap.Dense.Compiles != 1 || created.Source != "preprocess" {
		t.Fatalf("create: %d compiles, source %q; want 1 and preprocess", snap.Dense.Compiles, created.Source)
	}
	key, _ := keyFromID(created.SnapshotKey)
	if got := bundleSections(t, srv.Store(), key); got != "[header patterns dense]" {
		t.Fatalf("write-through bundle sections %s, want header, patterns, dense", got)
	}
}

// bundleSections lists the sections of the store's file under key.
func bundleSections(t *testing.T, store *persist.Store, key persist.Key) string {
	t.Helper()
	data, err := os.ReadFile(store.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	info, err := persist.Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range info.Sections {
		names = append(names, s.Name)
	}
	return fmt.Sprint(names)
}

// TestDenseOffWarmStartBuildsStage: under -dense off the tree walk serves,
// so every publish builds the stage — the create, and each entry a warm
// start loads, once — from a bundle of header and patterns alone, and the
// warm-started entry answers with the reference automaton's hits.
func TestDenseOffWarmStartBuildsStage(t *testing.T) {
	dir := t.TempDir()
	text, patterns, strs := densePatternStrings(t, 41)
	boot := func() *Server {
		srv, err := New(Config{Procs: 2, CacheDir: dir, DenseMode: DenseOff, Log: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	a := boot()
	created := createVia(t, a, strs)
	key, _ := keyFromID(created.SnapshotKey)
	if got := bundleSections(t, a.Store(), key); got != "[header patterns]" {
		t.Fatalf("bundle sections %s under -dense off, want header, patterns", got)
	}
	a.Close()

	b := boot()
	defer b.Close()
	snap := b.Metrics().Snapshot(b.Registry(), b.Limiter())
	infos := b.Registry().Infos()
	if len(infos) != 1 || !infos[0].Tree || infos[0].Source != "cache" || snap.PRAM["preprocess"].Ops != 1 {
		t.Fatalf("warm start: %+v, preprocess %+v; want one cache entry with its stage built once", infos, snap.PRAM["preprocess"])
	}
	rec := serveRoute(b.Handler(), http.MethodPost, "/v1/dicts/"+infos[0].ID+"/match", b64Body(text))
	var mr matchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil || mr.Engine != engineTree {
		t.Fatalf("match: %d %s (%v), want engine tree", rec.Code, clip(rec.Body.Bytes()), err)
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
	if i != len(mr.Hits) {
		t.Fatalf("%d hits, reference %d", len(mr.Hits), i)
	}
}

// BenchmarkWarmStart times server.New on a cache directory holding two
// bundles of 1024 patterns of 16–32 bytes over 64 symbols — the L shape
// that matchbench's persistent deployments carry as ballast — each written
// by a create, so in the form this server writes.
func BenchmarkWarmStart(b *testing.B) {
	dir := b.TempDir()
	cfg := Config{Procs: 1, CacheDir: dir, Log: quietLogger()}
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 2; k++ {
		pats := textgen.New(9000+k).Dictionary(1024, 16, 32, 64)
		strs := make([]string, len(pats))
		for i, p := range pats {
			strs[i] = string(p)
		}
		body, _ := json.Marshal(map[string]any{"patterns": strs})
		if rec := serveRoute(srv.Handler(), http.MethodPost, "/v1/dicts", body); rec.Code != http.StatusCreated {
			b.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
	}
	srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if n := srv.Registry().Len(); n != 2 {
			b.Fatalf("warm start loaded %d dictionaries, want 2", n)
		}
		srv.Close()
	}
}

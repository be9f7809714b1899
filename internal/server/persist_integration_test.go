package server

import (
	"encoding/json"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// persistTestPatterns is a fixed pattern set shared by the persistence
// integration tests (content addressing is input-sensitive, so the tests pin
// the inputs).
func persistTestPatterns() []string {
	return []string{"banana", "ana", "nab", "bandana", "band", "an"}
}

func createDictFull(t *testing.T, base string, patterns []string) dictCreateResponse {
	t.Helper()
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": patterns})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created
}

func matchHits(t *testing.T, base, id, text string) []matchHit {
	t.Helper()
	status, body := postJSON(t, base+"/v1/dicts/"+id+"/match", map[string]any{"text": text})
	if status != http.StatusOK {
		t.Fatalf("match: %d %s", status, body)
	}
	var out matchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Matched == 0 {
		t.Fatalf("degenerate match workload: no hits in %q", text)
	}
	return out.Hits
}

func metricsSnapshot(t *testing.T, base string) MetricsSnapshot {
	t.Helper()
	var snap MetricsSnapshot
	if status := getJSON(t, base+"/metrics", &snap); status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	return snap
}

// TestCacheWarmStartAndHit is the persistence acceptance test: a dictionary
// registered on one server instance is written through to the cache
// directory; a second instance sharing the directory boots with the
// dictionary already resident ("cache" source) and charges zero PRAM
// preprocessing for it; re-creating the same pattern set on the warm server
// is a cache hit, again with no preprocessing; and the loaded dictionary
// answers matches identically to the one that was built.
func TestCacheWarmStartAndHit(t *testing.T) {
	// The default -dense on: creates compile and never preprocess, and a
	// warm start restores the automaton, so the preprocess ledger stays at
	// zero throughout. The other servers in this file run DenseOff, where
	// the tree walk serves and every publish builds the §3 stage; DENSE
	// persistence is covered by persist's bundle tests,
	// TestDenseSnapshotWarmStart and TestWarmStartCompilesDenselessBundleOnce.
	dir := t.TempDir()
	patterns := persistTestPatterns()
	text := "xxbananabandanabxnabandxx"

	// First life: build and write through.
	srvA, baseA, shutdownA := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, MaxDicts: 4, MaxInflight: 16, CacheDir: dir,
	})
	created := createDictFull(t, baseA, patterns)
	if created.Source != "preprocess" {
		t.Fatalf("first create source = %q, want preprocess", created.Source)
	}
	if created.SnapshotKey == "" {
		t.Fatal("first create reported no snapshot key despite write-through")
	}
	wantMatch := matchHits(t, baseA, created.ID, text)
	snapA := metricsSnapshot(t, baseA)
	if snapA.Persist.CacheMisses != 1 || snapA.Persist.SnapshotSaves != 1 {
		t.Fatalf("after first create: misses=%d saves=%d, want 1/1",
			snapA.Persist.CacheMisses, snapA.Persist.SnapshotSaves)
	}
	if srvA.Store() == nil || len(mustKeys(t, srvA)) != 1 {
		t.Fatalf("expected exactly one snapshot on disk, got %d", len(mustKeys(t, srvA)))
	}
	if err := shutdownA(); err != nil {
		t.Fatalf("shutdown A: %v", err)
	}

	// Second life: warm start from the same directory.
	srvB, baseB, shutdownB := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, MaxDicts: 4, MaxInflight: 16, CacheDir: dir,
	})
	defer func() {
		if err := shutdownB(); err != nil {
			t.Errorf("shutdown B: %v", err)
		}
	}()
	if n := srvB.Registry().Len(); n != 1 {
		t.Fatalf("warm start: %d resident dictionaries, want 1", n)
	}
	infos := srvB.Registry().Infos()
	if infos[0].Source != "cache" {
		t.Fatalf("warm-started entry source = %q, want cache", infos[0].Source)
	}
	if infos[0].SnapKey != created.SnapshotKey {
		t.Fatalf("warm-started entry key = %q, want %q", infos[0].SnapKey, created.SnapshotKey)
	}

	// The warm boot and the cache hit below must not move the preprocess
	// ledger: loading is a sequential table read, not §3 work.
	if pre := metricsSnapshot(t, baseB).PRAM["preprocess"]; pre.Work != 0 || pre.Ops != 0 {
		t.Fatalf("warm start charged preprocessing: %+v", pre)
	}

	got := matchHits(t, baseB, infos[0].ID, text)
	if len(got) != len(wantMatch) {
		t.Fatalf("match length changed across restart: %d vs %d", len(got), len(wantMatch))
	}
	for i := range got {
		if got[i] != wantMatch[i] {
			t.Fatalf("match[%d] = %+v after restart, want %+v", i, got[i], wantMatch[i])
		}
	}

	// Same pattern set again: content-addressed hit, no preprocessing.
	hit := createDictFull(t, baseB, patterns)
	if hit.Source != "cache" {
		t.Fatalf("repeat create source = %q, want cache", hit.Source)
	}
	if hit.SnapshotKey != created.SnapshotKey {
		t.Fatalf("repeat create key = %q, want %q", hit.SnapshotKey, created.SnapshotKey)
	}
	snapB := metricsSnapshot(t, baseB)
	if snapB.Persist.CacheHits != 1 {
		t.Fatalf("cacheHits = %d, want 1", snapB.Persist.CacheHits)
	}
	if pre := snapB.PRAM["preprocess"]; pre.Work != 0 {
		t.Fatalf("cache hit charged preprocessing work %d", pre.Work)
	}
	if !snapB.Persist.Enabled || snapB.Persist.Loads < 2 {
		t.Fatalf("persist metrics: %+v", snapB.Persist)
	}

	// A different pattern set misses and is built here ("preprocess" is the
	// label of a dictionary built here): its automaton is compiled, and no
	// §3 preprocessing runs.
	other := createDictFull(t, baseB, []string{"zzz", "zyz"})
	if other.Source != "preprocess" {
		t.Fatalf("different patterns source = %q, want preprocess", other.Source)
	}
	snapB = metricsSnapshot(t, baseB)
	if snapB.Dense.Compiles != 1 {
		t.Fatalf("building a new pattern set compiled %d automata, want 1", snapB.Dense.Compiles)
	}
	if pre := snapB.PRAM["preprocess"]; pre.Work != 0 || pre.Ops != 0 {
		t.Fatalf("building a new pattern set charged preprocessing: %+v", pre)
	}
}

func mustKeys(t *testing.T, srv *Server) []string {
	t.Helper()
	keys, err := srv.Store().Keys()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

// TestEvictionKeepsSnapshots: LRU eviction bounds resident memory, not the
// disk cache — an evicted dictionary's snapshot file survives, so the entry
// can come back as a cache hit instead of a re-preprocess.
func TestEvictionKeepsSnapshots(t *testing.T) {
	dir := t.TempDir()
	srv, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, MaxDicts: 1, MaxInflight: 16, DenseMode: DenseOff, CacheDir: dir,
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	first := createDictFull(t, base, []string{"alpha", "beta"})
	second := createDictFull(t, base, []string{"gamma", "delta"})
	if len(second.Evicted) != 1 || second.Evicted[0] != first.ID {
		t.Fatalf("second create evicted %v, want [%s]", second.Evicted, first.ID)
	}
	if n := srv.Registry().Len(); n != 1 {
		t.Fatalf("registry holds %d entries, want 1", n)
	}
	if keys := mustKeys(t, srv); len(keys) != 2 {
		t.Fatalf("disk cache holds %d snapshots after eviction, want 2", len(keys))
	}

	// Re-creating the evicted set is a cache hit — the snapshot outlived the
	// resident entry.
	back := createDictFull(t, base, []string{"alpha", "beta"})
	if back.Source != "cache" {
		t.Fatalf("re-create of evicted dictionary source = %q, want cache", back.Source)
	}
}

// TestCorruptCacheQuarantine: a corrupted snapshot file must not take the
// server down or wedge the cache — the warm start skips and quarantines it,
// the boot succeeds, and the same pattern set can be re-registered (and
// re-cached) afterwards.
func TestCorruptCacheQuarantine(t *testing.T) {
	dir := t.TempDir()
	patterns := persistTestPatterns()

	srvA, baseA, shutdownA := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, MaxDicts: 4, MaxInflight: 16, DenseMode: DenseOff, CacheDir: dir,
	})
	createDictFull(t, baseA, patterns)
	keys := mustKeys(t, srvA)
	if len(keys) != 1 {
		t.Fatalf("expected 1 snapshot, got %d", len(keys))
	}
	if err := shutdownA(); err != nil {
		t.Fatalf("shutdown A: %v", err)
	}

	// Flip bytes in the middle of the snapshot (past the header so the
	// framing parses and the CRC catches it).
	path := filepath.Join(dir, keys[0]+".dmsnap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, baseB, shutdownB := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, MaxDicts: 4, MaxInflight: 16, DenseMode: DenseOff, CacheDir: dir,
	})
	defer func() {
		if err := shutdownB(); err != nil {
			t.Errorf("shutdown B: %v", err)
		}
	}()
	if n := srvB.Registry().Len(); n != 0 {
		t.Fatalf("corrupt snapshot produced %d resident dictionaries, want 0", n)
	}
	snap := metricsSnapshot(t, baseB)
	if snap.Persist.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", snap.Persist.Quarantines)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still under its valid name: %v", err)
	}

	// The server still serves: the same pattern set re-registers (a miss —
	// the quarantined file is invisible to lookups) and writes a fresh
	// snapshot through.
	again := createDictFull(t, baseB, patterns)
	if again.Source != "preprocess" {
		t.Fatalf("re-create after quarantine source = %q, want preprocess", again.Source)
	}
	if got := mustKeys(t, srvB); len(got) != 1 || got[0] != keys[0] {
		t.Fatalf("fresh write-through keys = %v, want [%s]", got, keys[0])
	}
}

// TestSnapshotRestoreEndpoints drives the admin round trip: snapshot a
// resident dictionary by ID, restore it under the returned key as a new
// entry, and check the restored copy matches identically. Error paths: bad
// key encodings and unknown keys.
func TestSnapshotRestoreEndpoints(t *testing.T) {
	dir := t.TempDir()
	text := "xxbananabandanabxnabandxx"

	_, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, MaxDicts: 4, MaxInflight: 16, DenseMode: DenseOff, CacheDir: dir,
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	created := createDictFull(t, base, persistTestPatterns())
	want := matchHits(t, base, created.ID, text)

	status, body := postJSON(t, base+"/v1/dicts/"+created.ID+"/snapshot", map[string]any{})
	if status != http.StatusOK {
		t.Fatalf("snapshot: %d %s", status, body)
	}
	var snapped snapshotResponse
	if err := json.Unmarshal(body, &snapped); err != nil {
		t.Fatal(err)
	}
	if snapped.Bytes <= 0 || len(snapped.Key) != 64 {
		t.Fatalf("snapshot response: %+v", snapped)
	}

	status, body = postJSON(t, base+"/v1/dicts/restore", map[string]any{"key": snapped.Key})
	if status != http.StatusCreated {
		t.Fatalf("restore: %d %s", status, body)
	}
	var restored dictCreateResponse
	if err := json.Unmarshal(body, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Source != "snapshot" {
		t.Fatalf("restored source = %q, want snapshot", restored.Source)
	}
	if restored.ID == created.ID {
		t.Fatal("restore reused the original ID")
	}
	got := matchHits(t, base, restored.ID, text)
	if len(got) != len(want) {
		t.Fatalf("restored match count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restored match[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Error paths.
	if status, body = postJSON(t, base+"/v1/dicts/restore", map[string]any{"key": "zz"}); status != http.StatusBadRequest {
		t.Fatalf("short key: %d %s", status, body)
	}
	bogus := strings.Repeat("ab", 32)
	if status, body = postJSON(t, base+"/v1/dicts/restore", map[string]any{"key": bogus}); status != http.StatusNotFound {
		t.Fatalf("unknown key: %d %s", status, body)
	}
	if status, body = postJSON(t, base+"/v1/dicts/nope/snapshot", map[string]any{}); status != http.StatusNotFound {
		t.Fatalf("snapshot unknown id: %d %s", status, body)
	}
}

// TestSnapshotEndpointsWithoutStore: without -cache-dir the admin endpoints
// refuse with 409 instead of pretending to persist.
func TestSnapshotEndpointsWithoutStore(t *testing.T) {
	_, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, MaxDicts: 4, MaxInflight: 16, DenseMode: DenseOff,
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	created := createDictFull(t, base, []string{"ab", "ba"})
	if status, body := postJSON(t, base+"/v1/dicts/"+created.ID+"/snapshot", map[string]any{}); status != http.StatusConflict {
		t.Fatalf("snapshot without store: %d %s", status, body)
	}
	if status, body := postJSON(t, base+"/v1/dicts/restore", map[string]any{"key": strings.Repeat("00", 32)}); status != http.StatusConflict {
		t.Fatalf("restore without store: %d %s", status, body)
	}
	if snap := metricsSnapshot(t, base); snap.Persist.Enabled {
		t.Fatal("persist reported enabled without a cache dir")
	}
}

// TestWarmStartStopsAtMaxDicts: a cache holding more bundles than
// -max-dicts warm-starts the first MaxDicts of them, says once that the rest
// stay on disk, and still checks every file in its sweep.
func TestWarmStartStopsAtMaxDicts(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Procs: 1, MaxDicts: 4, CacheDir: dir, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	for _, pats := range [][]string{{"alpha", "beta"}, {"gamma"}, {"delta", "epsilon"}} {
		createVia(t, srv, pats)
	}
	srv.Close()

	var logBuf syncBuffer
	srv, err = New(Config{Procs: 1, MaxDicts: 2, CacheDir: dir, Log: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if n := srv.Registry().Len(); n != 2 {
		t.Fatalf("warm start loaded %d dictionaries, want 2", n)
	}
	if srv.sweep.Valid != 3 || srv.sweep.Quarantined != 0 {
		t.Fatalf("sweep %+v, want 3 valid files", srv.sweep)
	}
	if n := strings.Count(logBuf.String(), "remaining entries stay on disk"); n != 1 {
		t.Fatalf("cap logged %d times, want once; log: %q", n, logBuf.String())
	}
}

package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/textgen"
)

// putTestEntry stores a small dictionary's bundle, returning its key and
// bytes.
func putTestEntry(t *testing.T, st *Store, seed uint64) (Key, []byte) {
	t.Helper()
	gen := textgen.New(seed)
	patterns := gen.Dictionary(6, 1, 10, 4)
	opts := core.Options{}
	key := KeyFor(patterns, opts)
	data := (&Bundle{Patterns: patterns, Options: opts}).Encode()
	if _, err := st.PutBytes(key, data); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	return key, data
}

// TestQuarantineSurfaced: a failed-validation GetBundle must log the quarantine
// and count it — never silently rename (or silently fail to rename).
func TestQuarantineSurfaced(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	st.SetLogf(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	key, _ := putTestEntry(t, st, 1)

	path := st.Path(key)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.GetBundle(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBundle on corrupt entry: %v, want ErrCorrupt", err)
	}
	if got := st.Quarantined(); got != 1 {
		t.Errorf("Quarantined() = %d, want 1", got)
	}
	if got := st.QuarantineFails(); got != 0 {
		t.Errorf("QuarantineFails() = %d, want 0", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "quarantined") {
		t.Errorf("quarantine not logged: %q", logged)
	}
}

// TestQuarantineRenameFailureCounted: when the quarantine rename itself
// fails, the store must count and log the failure while still returning the
// decode error to the caller.
func TestQuarantineRenameFailureCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	st.SetLogf(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	key, _ := putTestEntry(t, st, 2)
	path := st.Path(key)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Make the rename target unreachable: occupy path+quarantineExt with a
	// non-empty *directory*, which rename(2) cannot replace.
	if err := os.MkdirAll(filepath.Join(path+quarantineExt, "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.GetBundle(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBundle on corrupt entry: %v, want ErrCorrupt", err)
	}
	if got := st.QuarantineFails(); got != 1 {
		t.Errorf("QuarantineFails() = %d, want 1", got)
	}
	if got := st.Quarantined(); got != 0 {
		t.Errorf("Quarantined() = %d, want 0", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "FAILED") {
		t.Errorf("quarantine failure not logged: %q", logged)
	}
	// The corrupt file is still in place under its valid name; a later read
	// re-detects it rather than serving garbage.
	if _, _, err := st.GetBundle(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("second GetBundle: %v, want ErrCorrupt", err)
	}
}

// TestSweep: the startup sweep validates every entry, quarantines rot, and
// tallies leftovers from previous runs.
func TestSweep(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	goodKey, _ := putTestEntry(t, st, 3)
	badKey, _ := putTestEntry(t, st, 4)
	if badKey == goodKey {
		t.Fatal("test needs two distinct entries")
	}
	// Rot the second entry in place.
	path := st.Path(badKey)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x80
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A quarantine file left over from a previous run.
	pre := filepath.Join(st.Dir(), "deadbeef"+fileExt+quarantineExt)
	if err := os.WriteFile(pre, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An unrelated file the sweep must ignore.
	if err := os.WriteFile(filepath.Join(st.Dir(), "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Sweep(nil)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	want := SweepReport{Valid: 1, Quarantined: 1, QuarantineFails: 0, PreQuarantined: 1}
	if rep != want {
		t.Fatalf("Sweep report = %+v, want %+v", rep, want)
	}
	if st.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d after sweep, want 1", st.Quarantined())
	}
	// The good entry survived, the bad one now misses.
	if _, _, err := st.GetBundle(goodKey); err != nil {
		t.Errorf("good entry lost by sweep: %v", err)
	}
	if _, _, err := st.GetBundle(badKey); !errors.Is(err, ErrNotFound) {
		t.Errorf("bad entry after sweep: %v, want ErrNotFound", err)
	}
	// Idempotent: a second sweep finds one valid entry and two leftovers.
	rep2, err := st.Sweep(nil)
	if err != nil {
		t.Fatalf("second Sweep: %v", err)
	}
	want2 := SweepReport{Valid: 1, PreQuarantined: 2}
	if rep2 != want2 {
		t.Fatalf("second Sweep report = %+v, want %+v", rep2, want2)
	}
}

// TestPutReadBackCatchesTruncation: writeAtomic re-reads and re-validates
// the temp file before renaming it into place, so a snapshot that did not
// survive the trip to disk never lands under a valid name. Simulated here by
// the cheapest honest proxy available without fault injection: verifyWritten
// called on a truncated file must fail with a typed error. (The chaos build
// injects the faults into the live write path; see chaos_test.go.)
func TestPutReadBackCatchesTruncation(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	_, data := putTestEntry(t, st, 5)
	tmp := filepath.Join(st.Dir(), "manual.tmp")
	if err := os.WriteFile(tmp, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.verifyWritten(tmp, data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("verifyWritten on truncated file: %v, want ErrCorrupt", err)
	}
	// And on matching bytes it passes.
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.verifyWritten(tmp, data); err != nil {
		t.Fatalf("verifyWritten on intact file: %v", err)
	}
}

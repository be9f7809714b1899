//go:build chaos

package persist

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/textgen"
)

// withPlan installs a chaos plan for one test and removes it afterwards.
func withPlan(t *testing.T, seed uint64, spec string) {
	t.Helper()
	plan, err := chaos.ParsePlan(seed, spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	chaos.Install(plan)
	t.Cleanup(func() { chaos.Install(nil) })
}

func freshEntry(t *testing.T, seed uint64) (Key, []byte) {
	t.Helper()
	gen := textgen.New(seed)
	patterns := gen.Dictionary(6, 1, 10, 4)
	opts := core.Options{}
	return KeyFor(patterns, opts), (&Bundle{Patterns: patterns, Options: opts}).Encode()
}

// TestChaosShortWrite: an injected write error fails the PutBytes with a typed
// injected error, leaves no snapshot under the key, and leaves no temp
// litter behind.
func TestChaosShortWrite(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key, data := freshEntry(t, 10)
	withPlan(t, 42, "persist.write:p=1,n=1")
	if _, err := st.PutBytes(key, data); !chaos.IsInjected(err) {
		t.Fatalf("PutBytes under write fault: %v, want injected error", err)
	}
	if st.Has(key) {
		t.Fatal("short write left a snapshot under a valid name")
	}
	assertNoTempLitter(t, st)
	// The plan's n=1 cap has been consumed; the retry succeeds.
	if _, err := st.PutBytes(key, data); err != nil {
		t.Fatalf("PutBytes after fault window: %v", err)
	}
	if _, _, err := st.GetBundle(key); err != nil {
		t.Fatalf("GetBundle after recovered PutBytes: %v", err)
	}
}

// TestChaosFsyncAndRenameFaults: injected fsync and rename errors fail the
// PutBytes without leaving partial state.
func TestChaosFsyncAndRenameFaults(t *testing.T) {
	for _, point := range []chaos.Point{chaos.PersistSync, chaos.PersistRename} {
		t.Run(string(point), func(t *testing.T) {
			st, err := Open(filepath.Join(t.TempDir(), "cache"))
			if err != nil {
				t.Fatal(err)
			}
			key, data := freshEntry(t, 11)
			withPlan(t, 7, string(point)+":p=1,n=1")
			if _, err := st.PutBytes(key, data); !chaos.IsInjected(err) {
				t.Fatalf("PutBytes under %s fault: %v, want injected error", point, err)
			}
			if st.Has(key) {
				t.Fatalf("%s fault left a snapshot in place", point)
			}
			assertNoTempLitter(t, st)
			if _, err := st.PutBytes(key, data); err != nil {
				t.Fatalf("PutBytes after fault window: %v", err)
			}
		})
	}
}

// TestChaosWriteBitflipCaughtByReadBack: a bit flipped on the way to disk is
// caught by the post-write read-back — the PutBytes fails loudly while the caller
// still holds the good in-memory dictionary, and nothing corrupt is
// published under the key.
func TestChaosWriteBitflipCaughtByReadBack(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key, data := freshEntry(t, 12)
	withPlan(t, 99, "persist.writeflip:p=1,n=1")
	_, err = st.PutBytes(key, data)
	if err == nil {
		t.Fatal("PutBytes with flipped byte succeeded; read-back missed it")
	}
	if !strings.Contains(err.Error(), "read-back") {
		t.Fatalf("PutBytes error %v does not come from the read-back check", err)
	}
	if st.Has(key) {
		t.Fatal("corrupt snapshot published under a valid name")
	}
	if _, err := st.PutBytes(key, data); err != nil {
		t.Fatalf("PutBytes after fault window: %v", err)
	}
}

// TestChaosReadBitflipQuarantined: a bit flipped between disk and decoder
// trips the CRC, quarantines the file, and counts it; the caller sees the
// typed corruption error and can rebuild.
func TestChaosReadBitflipQuarantined(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key, data := freshEntry(t, 13)
	if _, err := st.PutBytes(key, data); err != nil {
		t.Fatal(err)
	}
	withPlan(t, 5, "persist.bitflip:p=1,n=1")
	if _, _, err := st.GetBundle(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBundle under bitflip: %v, want ErrCorrupt", err)
	}
	if st.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", st.Quarantined())
	}
	// The on-disk file was corrupted in memory only after ReadFile; the
	// quarantined bytes are the *original* good bytes, but the entry is gone
	// either way — the conservative outcome for a read-path flake.
	if _, _, err := st.GetBundle(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetBundle after quarantine: %v, want ErrNotFound", err)
	}
	// Rebuild and re-put restores service.
	if _, err := st.PutBytes(key, data); err != nil {
		t.Fatalf("re-PutBytes: %v", err)
	}
	if _, _, err := st.GetBundle(key); err != nil {
		t.Fatalf("GetBundle after re-PutBytes: %v", err)
	}
}

// TestChaosQuarantineRenameFault: when the quarantine rename is itself
// injected to fail, the failure is counted — not silent — and the decode
// error still reaches the caller.
func TestChaosQuarantineRenameFault(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key, data := freshEntry(t, 14)
	if _, err := st.PutBytes(key, data); err != nil {
		t.Fatal(err)
	}
	withPlan(t, 3, "persist.bitflip:p=1,n=1;persist.quarantine:p=1,n=1")
	if _, _, err := st.GetBundle(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBundle: %v, want ErrCorrupt", err)
	}
	if st.QuarantineFails() != 1 {
		t.Fatalf("QuarantineFails() = %d, want 1", st.QuarantineFails())
	}
	if st.Quarantined() != 0 {
		t.Fatalf("Quarantined() = %d, want 0", st.Quarantined())
	}
	// The file never moved (the injected rename failed before the real one
	// ran) and its on-disk bytes are intact, so the next GetBundle succeeds.
	if _, _, err := st.GetBundle(key); err != nil {
		t.Fatalf("GetBundle after failed quarantine of a read-flake: %v", err)
	}
}

func assertNoTempLitter(t *testing.T, st *Store) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(st.Dir(), "put-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

package persist

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
)

// TestConcurrentPutSameKey is the same-key write race regression test: 16
// writers hammer one key concurrently, half writing the plain bundle and
// half the dense-bearing one (the two legitimate states of a KeyFor entry —
// the dense upgrade rewrites the same key with a DENSE section added).
// Every Put must succeed, and once the dust settles the file must decode
// cleanly as one of the two written states, never a torn mix. Run under
// -race this also proves the striped lock covers the write path.
func TestConcurrentPutSameKey(t *testing.T) {
	d, patterns := bundleDict(t)
	aut, err := dense.CompileDictionary(d, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := EncodeBundle(d, nil)
	withDense := EncodeBundle(d, aut)

	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor(patterns, core.Options{Seed: 7}) // matches bundleDict's options

	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := plain
			if i%2 == 1 {
				data = withDense
			}
			_, errs[i] = store.PutBytes(key, data)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	got, _, err := store.GetBundle(key)
	if err != nil {
		t.Fatalf("bundle unreadable after concurrent writes: %v", err)
	}
	if store.Quarantined() != 0 {
		t.Fatalf("%d quarantines — a torn write reached disk", store.Quarantined())
	}
	if len(got.Patterns) != len(d.Patterns) {
		t.Fatalf("restored %d patterns, want %d", len(got.Patterns), len(d.Patterns))
	}
	// Whichever writer finished last, the automaton is either absent (plain
	// bundle) or structurally identical to the compiled one.
	if got.Automaton != nil && got.Automaton.NumStates() != aut.NumStates() {
		t.Fatalf("restored automaton has %d states, want %d", got.Automaton.NumStates(), aut.NumStates())
	}
}

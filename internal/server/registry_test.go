package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pram"
)

// insertTree inserts patterns without an automaton under a
// registry-assigned ID, as POST /v1/dicts does under -dense off; the §3
// stage is built on first use.
func insertTree(r *Registry, patterns [][]byte, opts core.Options) (*Entry, []string) {
	return r.Insert("", patterns, opts, nil, "preprocess", "", 0)
}

func mustRegister(t *testing.T, r *Registry, patterns ...string) *Entry {
	t.Helper()
	ps := make([][]byte, len(patterns))
	for i, p := range patterns {
		ps[i] = []byte(p)
	}
	e, _ := insertTree(r, ps, core.Options{})
	return e
}

func TestRegistryEvictionOrder(t *testing.T) {
	r := NewRegistry(2)
	e1 := mustRegister(t, r, "abc")
	e2 := mustRegister(t, r, "def")
	// Third insert evicts the least recently used (e1).
	ps := [][]byte{[]byte("ghi")}
	e3, evicted := insertTree(r, ps, core.Options{})
	if len(evicted) != 1 || evicted[0] != e1.ID {
		t.Fatalf("evicted = %v, want [%s]", evicted, e1.ID)
	}
	if _, ok := r.Get(e1.ID); ok {
		t.Fatalf("%s still resident after eviction", e1.ID)
	}
	// Touch e2 so e3 becomes LRU; the next insert must evict e3.
	if _, ok := r.Get(e2.ID); !ok {
		t.Fatalf("%s missing", e2.ID)
	}
	_, evicted = insertTree(r, [][]byte{[]byte("jkl")}, core.Options{})
	if len(evicted) != 1 || evicted[0] != e3.ID {
		t.Fatalf("evicted = %v, want [%s] (LRU after touching %s)", evicted, e3.ID, e2.ID)
	}
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	snap := r.Snapshot()
	if snap.Evictions != 2 || snap.Capacity != 2 || snap.Dicts != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestRegistryRemoveAndInfos(t *testing.T) {
	r := NewRegistry(8)
	e1 := mustRegister(t, r, "abc", "de")
	e2 := mustRegister(t, r, "xyz")
	infos := r.Infos()
	if len(infos) != 2 || infos[0].ID != e2.ID || infos[1].ID != e1.ID {
		t.Fatalf("Infos order = %v, want MRU first [%s %s]", infos, e2.ID, e1.ID)
	}
	if infos[1].TotalLen != 5 || infos[1].Patterns != 2 {
		t.Fatalf("info = %+v", infos[1])
	}
	if !r.Remove(e1.ID) || r.Remove(e1.ID) {
		t.Fatal("Remove should succeed once then report missing")
	}
	if snap := r.Snapshot(); snap.PatternBytes != 3 {
		t.Fatalf("PatternBytes = %d after remove, want 3", snap.PatternBytes)
	}
}

// TestRegistryConcurrent hammers register/lookup/evict/remove from many
// goroutines; run under -race it checks the locking discipline.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(4) // small capacity so evictions happen constantly
	const workers = 8
	const rounds = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []string
			for i := 0; i < rounds; i++ {
				pat := fmt.Sprintf("p%d-%d", w, i)
				e, _ := insertTree(r, [][]byte{[]byte(pat)}, core.Options{})
				mine = append(mine, e.ID)
				// Look up everything we ever registered; most are evicted.
				for _, id := range mine {
					if ent, ok := r.Get(id); ok && ent.NumPatterns != 1 {
						t.Errorf("corrupt entry %s", id)
					}
				}
				r.Infos()
				r.Snapshot()
				if i%7 == 0 {
					r.Remove(mine[len(mine)/2])
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Len(); got > 4 {
		t.Fatalf("Len = %d exceeds capacity 4", got)
	}
}

// TestEvictedEntryUsableMidRequest pins the eviction contract: a request
// holding an *Entry keeps getting correct answers after the registry drops
// it — eviction unlinks, it does not invalidate.
func TestEvictedEntryUsableMidRequest(t *testing.T) {
	r := NewRegistry(1)
	e := mustRegister(t, r, "abra", "ra")
	// Evict e by inserting another dictionary into the capacity-1 registry.
	mustRegister(t, r, "zzz")
	if _, ok := r.Get(e.ID); ok {
		t.Fatal("entry should be evicted")
	}
	text := []byte("abracadabra")
	matches, attempts, _, err := e.MatchChecked(context.Background(), text, 2, nil)
	if err != nil || attempts != 1 {
		t.Fatalf("MatchChecked after eviction: attempts=%d err=%v", attempts, err)
	}
	// "abra" at 0 and 7, "ra" at 2 and 9.
	wantLen := map[int]int32{0: 4, 2: 2, 7: 4, 9: 2}
	for i, mt := range matches {
		if want := wantLen[i]; mt.Length != want {
			t.Fatalf("pos %d: length %d, want %d", i, mt.Length, want)
		}
	}
}

// TestMatchShardedAgreesWithSingle checks the halo sharding against the
// unsharded matcher on a text long enough to split many ways.
func TestMatchShardedAgreesWithSingle(t *testing.T) {
	patterns := [][]byte{[]byte("abab"), []byte("ba"), []byte("aabb")}
	dict := core.Preprocess(pram.NewSequential(), patterns, core.Options{})
	n := 3 * minShardLen
	text := make([]byte, n)
	for i := range text {
		text[i] = "ab"[i%2]
		if i%97 == 0 {
			text[i] = 'a'
		}
	}
	want := dict.MatchText(pram.NewSequential(), text)
	got, counters := matchSharded(dict, text, 4)
	if counters.Work == 0 || counters.Depth == 0 {
		t.Fatal("sharded matcher charged no PRAM cost")
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pos %d: sharded %+v != single %+v", i, got[i], want[i])
		}
	}
}

func TestLimiter(t *testing.T) {
	l := NewLimiter(2)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("first two acquires must succeed")
	}
	if l.TryAcquire() {
		t.Fatal("third acquire must fail")
	}
	if l.Inflight() != 2 || l.Capacity() != 2 || l.Rejected() != 1 {
		t.Fatalf("inflight=%d cap=%d rejected=%d", l.Inflight(), l.Capacity(), l.Rejected())
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("acquire after release must succeed")
	}
}

//go:build chaos

package czsearch

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dense"
	"repro/internal/lz"
)

func withPlan(t *testing.T, seed uint64, spec string) {
	t.Helper()
	plan, err := chaos.ParsePlan(seed, spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	chaos.Install(plan)
	t.Cleanup(func() { chaos.Install(nil) })
}

// repeatedTokenContainer builds a container whose copy tokens repeat the
// same (entry state, src, len) key over and over — a memo-cache workload an
// optimal LZ1 parse would never produce, which is exactly why the chaos
// point needs it. The repeated token is a 64-byte block "xy", 60 × 'a',
// "xy": long enough that the header's mean token length lies above the
// cutover (the expanded mode has no memo to poison), and "xyxy" and "yx"
// occur exactly across the block boundaries, so a wrong entry state
// changes the output.
func repeatedTokenContainer(t *testing.T, reps int) ([]byte, *dense.Automaton) {
	t.Helper()
	aut, err := dense.Compile([][]byte{[]byte("yx"), []byte("xyxy")}, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	toks := []lz.Token{{Lit: 'x'}, {Lit: 'y'}, {Lit: 'a'}, {Src: 2, Len: 59}, {Src: 0, Len: 2}}
	for i := 0; i < reps; i++ {
		toks = append(toks, lz.Token{Src: 0, Len: 64})
	}
	var buf bytes.Buffer
	if err := lz.EncodeStream(&buf, lz.Compressed{N: 64 * (1 + reps), Tokens: toks}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), aut
}

func scanAll(t *testing.T, aut *dense.Automaton, s *Scanner, container []byte) ([]Event, Stats, error) {
	t.Helper()
	dec, err := lz.NewDecoder(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	var evs []Event
	st, err := s.Run(context.Background(), dec, func(e Event) error {
		evs = append(evs, e)
		return nil
	})
	return evs, st, err
}

// TestChaosPoisonedMemoDiverges: a czsearch.cache fault corrupts a cached
// exit state, so later hits on that key replay from the wrong automaton
// state and the scan's output diverges from decompress-then-match. This is
// the fault class the serving layer's sampled oracle exists for (the 5xx
// path is pinned in internal/server's chaos suite); here we pin that the
// poison (a) actually changes the output and (b) does not outlive Run —
// the next Run on the same Scanner is clean, so a pooled scanner is never
// wedged by one poisoned request.
func TestChaosPoisonedMemoDiverges(t *testing.T) {
	container, aut := repeatedTokenContainer(t, 50)

	clean := NewScanner(aut, Config{})
	want, cst, err := scanAll(t, aut, clean, container)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if cst.MemoHits == 0 {
		t.Fatalf("workload produced no memo hits — the fault has nothing to poison")
	}

	// Poison every memo store. The corrupted exit state drags every
	// subsequent token through wrong states.
	withPlan(t, 5, "czsearch.cache:p=1")
	s := NewScanner(aut, Config{})
	got, _, err := scanAll(t, aut, s, container)
	if err != nil {
		t.Fatalf("poisoned run: %v", err)
	}
	same := len(got) == len(want)
	if same {
		for i := range want {
			if got[i] != want[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("poisoned memo produced oracle-identical output — the fault injected nothing")
	}

	// Disarm and rerun on the SAME scanner: Run resets the memo, so the
	// poison is gone and the output is oracle-identical again.
	chaos.Install(nil)
	got2, st2, err := scanAll(t, aut, s, container)
	if err != nil {
		t.Fatalf("post-poison run: %v", err)
	}
	if len(got2) != len(want) {
		t.Fatalf("post-poison run: %d events, want %d", len(got2), len(want))
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("post-poison run diverges at event %d: %+v vs %+v", i, got2[i], want[i])
		}
	}
	if st2.MemoHits == 0 {
		t.Fatalf("post-poison run took no memo hits — cache disabled instead of cleaned")
	}
}

// TestChaosTruncateMidToken: a czsearch.truncate fault fails the token read
// mid-stream; the scan must surface a typed injected error, never a
// silently short match set, and the scanner must be reusable afterwards.
func TestChaosTruncateMidToken(t *testing.T) {
	container, aut := repeatedTokenContainer(t, 50)
	s := NewScanner(aut, Config{})
	want, _, err := scanAll(t, aut, s, container)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	withPlan(t, 9, "czsearch.truncate:every=20")
	_, _, err = scanAll(t, aut, s, container)
	if err == nil {
		t.Fatal("truncated scan reported success")
	}
	if !chaos.IsInjected(err) {
		t.Fatalf("err = %v, want an injected fault", err)
	}

	// Disarm; the same pooled scanner serves the next request correctly.
	chaos.Install(nil)
	got, _, err := scanAll(t, aut, s, container)
	if err != nil {
		t.Fatalf("run after truncation: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("run after truncation: %d events, want %d", len(got), len(want))
	}
}

package dense

import (
	"math/rand/v2"
	"testing"

	"repro/internal/textgen"
)

// TestCompileDeterministicStateIDs pins the property czsearch's memo cache
// rests on: compiled state ids are a pure function of the pattern list.
// czsearch keys memoized transitions by (entry state, token) and persists
// nothing, but a recompile of the same dictionary (entry eviction + re-add,
// warm restart without a DENSE section) must land every state at the same
// id, or a cache carried across automata would silently mix state spaces.
// The construction is deterministic by design — byte-ordered alphabet
// compression, pattern-order trie insertion, BFS queue order — and this test
// is the tripwire for anyone introducing map-iteration order into it.
//
// It also pins what the ids are: a state is its row offset, id × width, and
// the ids are BFS order from the root (re-derived here by a BFS over Step,
// not from Compile's trie) with the states that have outputs moved after
// the rest, each group in BFS order.
func TestCompileDeterministicStateIDs(t *testing.T) {
	gen := textgen.New(99)
	random := gen.Dictionary(64, 1, 12, 8)
	cases := []struct {
		name     string
		patterns [][]byte
	}{
		{"classic", toBytes("he", "she", "his", "hers")},
		{"nested", toBytes("a", "aa", "aaa", "aaaa", "ab", "aab")},
		{"duplicates", toBytes("abc", "abc", "bc", "abc")},
		{"single", toBytes("xyzzy")},
		{"binary", [][]byte{{0x00, 0x01}, {0xff, 0x00}, {0x01, 0x01, 0x00}}},
		{"random64", random},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mustCompile(t, tc.patterns)
			checkNumbering(t, a)
			for trial := 0; trial < 3; trial++ {
				b := mustCompile(t, tc.patterns)
				if a.numStates != b.numStates || a.width != b.width || a.maxPatLen != b.maxPatLen {
					t.Fatalf("trial %d: shape differs: (%d,%d,%d) vs (%d,%d,%d)",
						trial, a.numStates, a.width, a.maxPatLen, b.numStates, b.width, b.maxPatLen)
				}
				if a.symClass != b.symClass {
					t.Fatalf("trial %d: symClass differs", trial)
				}
				for i := range a.next {
					if a.next[i] != b.next[i] {
						t.Fatalf("trial %d: next[%d] = %d vs %d", trial, i, a.next[i], b.next[i])
					}
				}
				for i := range a.outOff {
					if a.outOff[i] != b.outOff[i] {
						t.Fatalf("trial %d: outOff[%d] = %d vs %d", trial, i, a.outOff[i], b.outOff[i])
					}
				}
				for i := range a.outPat {
					if a.outPat[i] != b.outPat[i] {
						t.Fatalf("trial %d: outPat[%d] = %d vs %d", trial, i, a.outPat[i], b.outPat[i])
					}
				}
				for i := range a.patLen {
					if a.patLen[i] != b.patLen[i] {
						t.Fatalf("trial %d: patLen[%d] = %d vs %d", trial, i, a.patLen[i], b.patLen[i])
					}
				}
			}
		})
	}
}

// checkNumbering holds a's ids to the rule above.
func checkNumbering(t *testing.T, a *Automaton) {
	t.Helper()
	bfs := bfsIDs(a)
	order := make([]int32, len(bfs)) // BFS position -> id
	for id, k := range bfs {
		order[k] = int32(id)
	}
	want := int32(0)
	for _, outputs := range []bool{false, true} {
		if outputs && a.outStart != want*a.width {
			t.Fatalf("outStart = %d, want %d × %d", a.outStart, want, a.width)
		}
		for _, id := range order {
			if q := id * a.width; a.HasOutputs(q) == outputs {
				if id != want {
					t.Fatalf("BFS position %d has id %d, want %d", bfs[id], id, want)
				}
				if (len(a.Outputs(q)) > 0) != outputs {
					t.Fatalf("state %d: HasOutputs %v but %d outputs", q, outputs, len(a.Outputs(q)))
				}
				want++
			}
		}
	}
	for i, q := range a.next {
		if q%a.width != 0 || q < 0 || q >= a.numStates*a.width {
			t.Fatalf("next[%d] = %d is not a row offset", i, q)
		}
	}
}

// TestStateIDsClassic spells out the numbering on the classic dictionary.
// BFS order is root, h, s, he, hi, sh, her, his, she, hers; he, his, she and
// hers have outputs, so they take ids 6–9, and with six classes (absent,
// e, h, i, r, s) a state is its id × 6.
func TestStateIDsClassic(t *testing.T) {
	a := mustCompile(t, toBytes("he", "she", "his", "hers"))
	want := map[string]int32{"h": 1, "s": 2, "hi": 3, "sh": 4, "her": 5, "he": 6, "his": 7, "she": 8, "hers": 9}
	for label, id := range want {
		q := int32(0)
		for _, c := range []byte(label) {
			q = a.Step(q, c)
		}
		if q != id*6 {
			t.Errorf("%q: state %d, want %d × 6", label, q, id)
		}
	}
}

// TestStepMatchesScan pins that the incremental surface (Step + Outputs) is
// the same machine Scan runs: replaying a text byte by byte visits states
// whose output lists reproduce Scan's emissions exactly, in order. The text
// spans several kernel blocks, so Scan's side runs the lanes.
func TestStepMatchesScan(t *testing.T) {
	a := mustCompile(t, toBytes("he", "she", "his", "hers", "ers"))
	rng := rand.New(rand.NewPCG(3, 5))
	text := make([]byte, 3*blockBytes+500)
	letters := []byte("hers i")
	for i := range text {
		text[i] = letters[rng.IntN(len(letters))]
	}

	var want []Hit
	if err := a.Scan(text, func(pat int32, from, to int) error {
		want = append(want, Hit{Pat: pat, From: from, To: to})
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}

	var got []Hit
	q := int32(0)
	for i, b := range text {
		q = a.Step(q, b)
		if q%a.width != 0 {
			t.Fatalf("Step returned %d, not a row offset", q)
		}
		if a.HasOutputs(q) != (len(a.Outputs(q)) > 0) {
			t.Fatalf("HasOutputs(%d) disagrees with Outputs length", q)
		}
		for _, p := range a.Outputs(q) {
			got = append(got, Hit{Pat: p, From: i + 1 - int(a.PatternLen(p)), To: i + 1})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("step replay found %d occurrences, Scan found %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d: step %+v, Scan %+v", i, got[i], want[i])
		}
	}
}

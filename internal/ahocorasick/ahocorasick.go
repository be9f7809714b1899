// Package ahocorasick implements the classical Aho–Corasick automaton (the
// paper's citation [3]): linear-time sequential dictionary matching. It is
// the baseline the parallel algorithm is measured against, the oracle the
// tests compare the parallel matcher's output to, and, with Certify, the
// check that a compiled transition table is the automaton of its patterns —
// and with Walk, the serving layer's canary over a table so certified. It
// imports nothing from this module, so it shares no fault with what it
// checks.
package ahocorasick

// Automaton is a goto/fail/output automaton over byte strings.
type Automaton struct {
	next    []map[byte]int32 // goto function per state
	fail    []int32
	ownOut  []int32 // pattern ending exactly at this state, -1 if none
	longest []int32 // longest pattern ending at this state via fail chain, -1
	outLink []int32 // nearest fail-ancestor (inclusive) with ownOut != -1, -1
	patLens []int32 // pattern lengths by pattern index
	depth   []int32
	root    [256]int32 // goto from the root as an array, 0 where there is none
}

// New builds the automaton for the given patterns. Empty patterns are
// rejected. Construction is O(d) for dictionary size d (with hash-map
// transitions, so the alphabet stays unbounded as in the paper's comparison
// model).
func New(patterns [][]byte) *Automaton {
	a := &Automaton{}
	a.addState(0)
	for idx, p := range patterns {
		if len(p) == 0 {
			panic("ahocorasick: empty pattern")
		}
		a.patLens = append(a.patLens, int32(len(p)))
		s := int32(0)
		for _, c := range p {
			t, ok := a.next[s][c]
			if !ok {
				t = int32(len(a.next))
				a.addState(a.depth[s] + 1)
				a.next[s][c] = t
			}
			s = t
		}
		if a.ownOut[s] == -1 {
			a.ownOut[s] = int32(idx) // duplicates keep the first index
		}
	}
	for c, t := range a.next[0] {
		a.root[c] = t
	}
	a.buildFailures()
	return a
}

func (a *Automaton) addState(depth int32) {
	a.next = append(a.next, make(map[byte]int32))
	a.fail = append(a.fail, 0)
	a.ownOut = append(a.ownOut, -1)
	a.longest = append(a.longest, -1)
	a.outLink = append(a.outLink, -1)
	a.depth = append(a.depth, depth)
}

func (a *Automaton) buildFailures() {
	finish := func(t int32) {
		f := a.fail[t]
		if a.ownOut[t] != -1 {
			a.longest[t] = a.ownOut[t] // deepest pattern here is itself
			a.outLink[t] = t
		} else {
			a.longest[t] = a.longest[f]
			a.outLink[t] = a.outLink[f]
		}
	}
	queue := make([]int32, 0, len(a.next))
	for _, t := range a.next[0] {
		a.fail[t] = 0
		queue = append(queue, t)
	}
	for _, t := range queue { // depth-1 states
		finish(t)
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		for c, t := range a.next[s] {
			queue = append(queue, t)
			f := a.fail[s]
			for {
				if nt, ok := a.next[f][c]; ok && nt != t {
					a.fail[t] = nt
					break
				}
				if f == 0 {
					a.fail[t] = 0
					break
				}
				f = a.fail[f]
			}
			finish(t)
		}
	}
}

// NumStates returns the number of automaton states.
func (a *Automaton) NumStates() int { return len(a.next) }

// step is the goto/fail transition. Every failed walk ends at the root, so
// on text that seldom matches the root's goto is about half of all lookups;
// it is read from an array, not a map: 72 → 38 ns/B on the whole texts the
// tests and matchbench match with it.
func (a *Automaton) step(s int32, c byte) int32 {
	for s != 0 {
		if t, ok := a.next[s][c]; ok {
			return t
		}
		s = a.fail[s]
	}
	return a.root[c]
}

// Match returns, for each text position i, the index of the longest pattern
// that occurs starting at i, or -1 — the paper's dictionary-matching output
// M. Runs in O(n + occ) where occ is the total number of pattern
// occurrences (output links are walked once per occurrence).
func (a *Automaton) Match(text []byte) []int32 {
	res := make([]int32, len(text))
	for i := range res {
		res[i] = -1
	}
	s := int32(0)
	for i := 0; i < len(text); i++ {
		s = a.step(s, text[i])
		for st := a.outLink[s]; st != -1; st = a.outLink[a.fail[st]] {
			p := a.ownOut[st]
			start := i - int(a.patLens[p]) + 1
			if res[start] == -1 || a.patLens[res[start]] < a.patLens[p] {
				res[start] = p
			}
		}
	}
	return res
}

// MatchEnds returns, for each text position i, the index of the longest
// pattern that ends at position i (inclusive), or -1. Runs in O(n).
func (a *Automaton) MatchEnds(text []byte) []int32 {
	res := make([]int32, len(text))
	s := int32(0)
	for i := 0; i < len(text); i++ {
		s = a.step(s, text[i])
		res[i] = a.longest[s]
	}
	return res
}

// PatternLen returns the length of pattern idx.
func (a *Automaton) PatternLen(idx int32) int32 { return a.patLens[idx] }

// Package dense is the serving-time fast path for dictionary matching: a
// post-preprocessing compile stage that lowers a prepared pattern set into a
// branch-free flat transition table, in the style of the Ken Steele dense-DFA
// Aho–Corasick variant (SNIPPETS.md #1).
//
// The paper's regime is preprocess-once/match-many; its §3 matcher is
// work-optimal on a PRAM but walks suffix-tree/NCA structures per text
// position at serving time. This package trades memory for raw per-byte
// speed: the goto and failure functions are pre-resolved into one
// next[state][class] array, so every text byte costs exactly one table load
// — no branches on miss, no failure chain, no hashing. The alphabet is
// compressed to the byte classes that actually occur in the dictionary (plus
// one shared "absent" class that always leads back to the root), which keeps
// the table at states × (σ+1) entries instead of states × 256.
//
// Matching here is deterministic — no fingerprints, no Las Vegas loop — so
// the §3.4 checker, a soundness certificate for one-sided errors, cannot
// vouch for it. The serving layer cross-validates sampled dense results
// against internal/ahocorasick instead (internal/server/oracle.go), the
// fuzz target FuzzDenseEquivalence compares all three implementations, and
// the greedy-parsing-optimality literature (arXiv:1211.5350) is the standing
// reminder that a fast path earns trust by agreeing with a slow one, not by
// replacing it.
//
// The API is allocation-free on the hot path: Scan reports every occurrence
// through a callback without allocating, MatchInto fills a caller-provided
// buffer with the paper's M[i] output (longest pattern starting at each
// position), and FindAll is the convenience batch form built on Scan.
package dense

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// DefaultMaxTableBytes bounds the transition table a Compile may build when
// Options.MaxTableBytes is zero. Dense tables are the classic space-for-time
// trade: states × alphabet × 4 bytes. 256 MiB covers every realistic rule
// set (a 16 MiB dictionary over a full byte alphabet) while refusing to turn
// a pathological compile into an allocation bomb; callers that want bigger
// tables opt in explicitly.
const DefaultMaxTableBytes = 256 << 20

// ErrTableTooLarge reports that the dense table would exceed the configured
// byte budget; the caller should keep serving from the tree-walk matcher.
var ErrTableTooLarge = errors.New("dense: transition table exceeds byte budget")

// Options configure compilation.
type Options struct {
	// MaxTableBytes caps the size of next[][] in bytes (0 = DefaultMaxTableBytes).
	MaxTableBytes int64
}

// Automaton is a compiled dense dictionary automaton. It is immutable after
// Compile/Restore and safe for concurrent readers.
type Automaton struct {
	numStates int32
	width     int32       // compressed alphabet size including the absent class
	symClass  [256]uint16 // byte -> column index; 0 = byte absent from dictionary
	next      []int32     // numStates × width, goto ∪ failure pre-resolved
	outOff    []int32     // numStates+1 prefix offsets into outPat
	outPat    []int32     // per-state pattern ids ending there, longest first
	patLen    []int32     // pattern lengths by pattern id
	maxPatLen int32
}

// Stats describes a compiled automaton's shape and memory footprint.
type Stats struct {
	States     int   `json:"states"`
	Alphabet   int   `json:"alphabet"` // compressed classes incl. the absent class
	Patterns   int   `json:"patterns"`
	OutEntries int   `json:"outEntries"` // total per-state output-list length
	TableBytes int64 `json:"tableBytes"` // next[][] only, the dominant cost
	TotalBytes int64 `json:"totalBytes"` // all automaton arrays
}

// Stats returns the automaton's shape counters.
func (a *Automaton) Stats() Stats {
	return Stats{
		States:     int(a.numStates),
		Alphabet:   int(a.width),
		Patterns:   len(a.patLen),
		OutEntries: len(a.outPat),
		TableBytes: int64(len(a.next)) * 4,
		TotalBytes: int64(len(a.next)+len(a.outOff)+len(a.outPat)+len(a.patLen))*4 + 512,
	}
}

// NumStates returns the number of DFA states.
func (a *Automaton) NumStates() int { return int(a.numStates) }

// MaxPatternLen returns the longest pattern length — the halo bound sharded
// scans need.
func (a *Automaton) MaxPatternLen() int { return int(a.maxPatLen) }

// PatternLen returns the length of pattern id.
func (a *Automaton) PatternLen(id int32) int32 { return a.patLen[id] }

// Compile lowers a pattern set into a dense automaton. Patterns must be
// non-empty; duplicate patterns collapse onto the first id, matching the
// convention of both oracles (internal/ahocorasick and internal/core).
// Construction is O(states × σ) time and memory — the deliberate trade
// against the O(d) tree-walk structures it accelerates.
func Compile(patterns [][]byte, opts Options) (*Automaton, error) {
	if len(patterns) == 0 {
		return nil, errors.New("dense: empty dictionary")
	}
	maxTable := opts.MaxTableBytes
	if maxTable <= 0 {
		maxTable = DefaultMaxTableBytes
	}

	a := &Automaton{patLen: make([]int32, len(patterns))}
	// Alphabet compression: column 0 is the shared "absent" class (always
	// transitions to the root), columns 1.. are the bytes the dictionary
	// uses, in byte order so compilation is deterministic.
	for _, p := range patterns {
		if len(p) == 0 {
			return nil, errors.New("dense: empty pattern")
		}
		for _, c := range p {
			a.symClass[c] = 1
		}
	}
	width := int32(1)
	for c := 0; c < 256; c++ {
		if a.symClass[c] != 0 {
			a.symClass[c] = uint16(width)
			width++
		}
	}
	a.width = width

	// Trie pass: states keyed by (parent, class) in a per-state sparse map,
	// so the dense table is allocated once at its final size.
	type stateRef struct{ next map[int32]int32 }
	trie := []stateRef{{next: map[int32]int32{}}}
	ownOut := []int32{-1}
	for id, p := range patterns {
		a.patLen[id] = int32(len(p))
		if a.patLen[id] > a.maxPatLen {
			a.maxPatLen = a.patLen[id]
		}
		s := int32(0)
		for _, c := range p {
			cls := int32(a.symClass[c])
			t, ok := trie[s].next[cls]
			if !ok {
				t = int32(len(trie))
				trie = append(trie, stateRef{next: map[int32]int32{}})
				ownOut = append(ownOut, -1)
				trie[s].next[cls] = t
			}
			s = t
		}
		if ownOut[s] == -1 {
			ownOut[s] = int32(id) // duplicates keep the first id
		}
	}
	numStates := int32(len(trie))
	a.numStates = numStates
	if bytes := int64(numStates) * int64(width) * 4; bytes > maxTable {
		return nil, fmt.Errorf("%w: %d states × %d classes = %d bytes (budget %d)",
			ErrTableTooLarge, numStates, width, bytes, maxTable)
	}

	// BFS pass: pre-resolve goto ∪ failure into the dense table. Processing
	// states in BFS order means fail[s]'s row is complete before s's row is
	// built, so a missing transition is a single copy from the failure row —
	// the standard dense-DFA construction.
	a.next = make([]int32, int(numStates)*int(width))
	fail := make([]int32, numStates)
	outLen := make([]int32, numStates)
	queue := make([]int32, 0, numStates)
	for cls, t := range trie[0].next {
		a.next[cls] = t
		queue = append(queue, t)
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		row := a.next[int(s)*int(width) : (int(s)+1)*int(width)]
		failRow := a.next[int(fail[s])*int(width) : (int(fail[s])+1)*int(width)]
		for cls := int32(0); cls < width; cls++ {
			if t, ok := trie[s].next[cls]; ok {
				fail[t] = failRow[cls]
				row[cls] = t
				queue = append(queue, t)
			} else {
				row[cls] = failRow[cls]
			}
		}
		if ownOut[s] != -1 {
			outLen[s] = outLen[fail[s]] + 1
		} else {
			outLen[s] = outLen[fail[s]]
		}
	}

	// Packed output lists: state s reports every pattern that is a suffix of
	// its path label, longest first (own pattern, then the failure chain's).
	a.outOff = make([]int32, numStates+1)
	total := int32(0)
	for s := int32(0); s < numStates; s++ {
		a.outOff[s] = total
		total += outLen[s]
	}
	a.outOff[numStates] = total
	a.outPat = make([]int32, total)
	for _, s := range queue { // BFS order: fail[s]'s list is already filled
		off := a.outOff[s]
		if ownOut[s] != -1 {
			a.outPat[off] = ownOut[s]
			off++
		}
		f := fail[s]
		copy(a.outPat[off:a.outOff[s+1]], a.outPat[a.outOff[f]:a.outOff[f+1]])
	}
	return a, nil
}

// CompileDictionary compiles the dense automaton for a prepared dictionary —
// the post-preprocessing "compile" stage of the serving pipeline.
func CompileDictionary(d *core.Dictionary, opts Options) (*Automaton, error) {
	return Compile(d.Patterns, opts)
}

// Scan runs the automaton over text and calls emit once per pattern
// occurrence, with the pattern id and the half-open byte range [from, to).
// Occurrences at the same end position are emitted longest first. Scan
// performs zero allocations; returning a non-nil error from emit aborts the
// scan and returns that error.
func (a *Automaton) Scan(text []byte, emit func(pat int32, from, to int) error) error {
	s := int32(0)
	w := int(a.width)
	next := a.next
	for i := 0; i < len(text); i++ {
		s = next[int(s)*w+int(a.symClass[text[i]])]
		if off, end := a.outOff[s], a.outOff[s+1]; off != end {
			for _, p := range a.outPat[off:end] {
				if err := emit(p, i+1-int(a.patLen[p]), i+1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Hit is one pattern occurrence reported by FindAll.
type Hit struct {
	Pat  int32 // pattern id
	From int   // start offset, inclusive
	To   int   // end offset, exclusive
}

// FindAll returns every pattern occurrence in text, ordered by end position
// (longest first among same-end occurrences). It is the batch form of Scan.
func (a *Automaton) FindAll(text []byte) []Hit {
	var hits []Hit
	_ = a.Scan(text, func(pat int32, from, to int) error {
		hits = append(hits, Hit{Pat: pat, From: from, To: to})
		return nil
	})
	return hits
}

// MatchInto fills out (which must have len(text) entries) with the paper's
// dictionary-matching output: out[i] is the longest pattern starting at i, or
// core.None. It allocates nothing, so halo-sharded callers can reuse
// per-shard buffers. The loop is Scan inlined — the emit indirection costs
// ~20% on match-dense texts.
func (a *Automaton) MatchInto(text []byte, out []core.Match) {
	for i := range out {
		out[i] = core.None
	}
	s := int32(0)
	w := int(a.width)
	next := a.next
	for i := 0; i < len(text); i++ {
		s = next[int(s)*w+int(a.symClass[text[i]])]
		if off, end := a.outOff[s], a.outOff[s+1]; off != end {
			for _, p := range a.outPat[off:end] {
				l := a.patLen[p]
				start := i + 1 - int(l)
				if out[start].Length < l {
					out[start] = core.Match{PatternID: p, Length: l}
				}
			}
		}
	}
}

// Match is the allocating convenience form of MatchInto.
func (a *Automaton) Match(text []byte) []core.Match {
	out := make([]core.Match, len(text))
	a.MatchInto(text, out)
	return out
}

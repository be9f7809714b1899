// Package dense is the serving-time fast path for dictionary matching: a
// post-preprocessing compile stage that lowers a prepared pattern set into a
// flat transition table, in the style of the Ken Steele dense-DFA
// Aho–Corasick variant (SNIPPETS.md #1).
//
// The paper's regime is preprocess-once/match-many; its §3 matcher is
// work-optimal on a PRAM but walks suffix-tree/NCA structures per text
// position at serving time. This package trades memory for raw per-byte
// speed: the goto and failure functions are pre-resolved into one
// next[state+class] array whose entries are row offsets (state id × width),
// and the states with outputs are numbered after every state without. A text
// byte therefore costs a class load, an add, one table load and a compare
// against one threshold — "did a pattern end here" is state >= outStart —
// with no failure chain, no hashing and no output-table load unless a
// pattern did end. The alphabet is compressed to the byte classes that
// actually occur in the dictionary (plus one shared "absent" class that
// always leads back to the root), which keeps the table at states × (σ+1)
// entries instead of states × 256.
//
// One scan kernel (kernel.go) walks every text: interleaved lanes over
// fixed blocks, so the table misses of independent byte chains overlap. It
// reports the bytes that ended an occurrence, and Scan, MatchInto and
// Cursor.Feed each replay those hits into their own output form.
//
// Matching here is deterministic — no fingerprints, no Las Vegas loop — so
// the §3.4 checker, a soundness certificate for one-sided errors, cannot
// vouch for it. What vouches for a table is ahocorasick.Certify, which
// checks every entry of it against its patterns through the read-only view
// in step.go; the serving layer runs it once per automaton, before the
// automaton's first answer, and walks the certified table naively with
// ahocorasick.Walk as a sparse canary on the code around the table — the
// kernel, the cursors, the shards (internal/server/oracle.go). The tests
// and fuzz targets hold every entry point to ahocorasick's matcher, and
// the greedy-parsing-optimality literature (arXiv:1211.5350) is the
// standing reminder that a fast path earns trust by agreeing with a slow
// one, not by replacing it.
//
// The API is allocation-free on the hot path: Scan reports every occurrence
// through a callback without allocating, MatchInto fills a caller-provided
// buffer with the paper's M[i] output (longest pattern starting at each
// position), and FindAll is the convenience batch form built on Scan.
package dense

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

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
// byte budget, or the int32 range of its row offsets; the caller should keep
// serving from the tree-walk matcher.
var ErrTableTooLarge = errors.New("dense: transition table exceeds byte budget")

// Options configure compilation.
type Options struct {
	// MaxTableBytes caps the size of next[][] in bytes (0 = DefaultMaxTableBytes).
	MaxTableBytes int64
}

// Automaton is a compiled dense dictionary automaton. It is immutable after
// Compile/Restore and safe for concurrent readers.
//
// A state is named by its row offset, id × width. Ids are BFS order (root
// 0, children in class order) with every state that has outputs moved after
// every state that has none, each group keeping BFS order: a state has
// outputs exactly when its row offset is at least outStart.
type Automaton struct {
	numStates int32
	width     int32       // compressed alphabet size including the absent class
	symClass  [256]uint16 // byte -> column index; 0 = byte absent from dictionary
	next      []int32     // numStates × width row offsets, goto ∪ failure pre-resolved
	outStart  int32       // row offset of the first state with outputs
	idMagic   uint64      // ⌈2⁶⁴/width⌉: id = (offset × idMagic) >> 64, no division
	outOff    []int32     // numStates+1 prefix offsets into outPat, by state id
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

// checkTableSize refuses a table of states × width entries that exceeds the
// byte budget or whose row offsets would not fit an int32 — the second
// whatever the budget, since an offset past 2³¹ wraps silently.
func checkTableSize(states, width, budget int64) error {
	entries := states * width
	if entries > math.MaxInt32 {
		return fmt.Errorf("%w: %d states × %d classes = %d entries, past int32 row offsets",
			ErrTableTooLarge, states, width, entries)
	}
	if entries*4 > budget {
		return fmt.Errorf("%w: %d states × %d classes = %d bytes (budget %d)",
			ErrTableTooLarge, states, width, entries*4, budget)
	}
	return nil
}

// setWidth fixes the alphabet width and the reciprocal that maps a row
// offset back to its state id.
func (a *Automaton) setWidth(w int32) {
	a.width = w
	a.idMagic = math.MaxUint64/uint64(w) + 1
}

// stateID returns the id of the state at row offset q: q / width, computed
// as a multiply-high by ⌈2⁶⁴/width⌉, which is exact for every 32-bit q
// (Lemire, Kaser & Kurz, "Faster remainder by direct computation", 2019).
func (a *Automaton) stateID(q int32) int32 {
	hi, _ := bits.Mul64(a.idMagic, uint64(uint32(q)))
	return int32(hi)
}

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
	a.setWidth(width)

	// Trie pass: nodes in creation order, each node's children kept sorted
	// by class, so a lookup is a binary search and the BFS below visits
	// children in class order.
	label := []int32{0} // class of the edge into each node
	kids := [][]int32{nil}
	ownOut := []int32{-1}
	child := func(s, cls int32) (int, bool) {
		ks := kids[s]
		lo, hi := 0, len(ks)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if label[ks[m]] < cls {
				lo = m + 1
			} else {
				hi = m
			}
		}
		return lo, lo < len(ks) && label[ks[lo]] == cls
	}
	for id, p := range patterns {
		a.patLen[id] = int32(len(p))
		if a.patLen[id] > a.maxPatLen {
			a.maxPatLen = a.patLen[id]
		}
		s := int32(0)
		for _, c := range p {
			cls := int32(a.symClass[c])
			at, ok := child(s, cls)
			if !ok {
				t := int32(len(label))
				label = append(label, cls)
				kids = append(kids, nil)
				ownOut = append(ownOut, -1)
				kids[s] = append(kids[s], 0)
				copy(kids[s][at+1:], kids[s][at:])
				kids[s][at] = t
			}
			s = kids[s][at]
		}
		if ownOut[s] == -1 {
			ownOut[s] = int32(id) // duplicates keep the first id
		}
	}
	numStates := int32(len(label))
	a.numStates = numStates
	if err := checkTableSize(int64(numStates), int64(width), maxTable); err != nil {
		return nil, err
	}

	// BFS pass over the trie: the state order, failure links (a failure
	// target is shallower, so already resolved) and output-list lengths.
	// Whether a state has outputs is known here, before any row exists,
	// which is what lets the rows below be written once, at their final
	// offsets.
	order := make([]int32, 1, numStates)
	fail := make([]int32, numStates)
	outLen := make([]int32, numStates)
	for qi := 0; qi < len(order); qi++ {
		s := order[qi]
		for _, t := range kids[s] {
			f := int32(0)
			if s != 0 {
				for g := fail[s]; ; g = fail[g] {
					if at, ok := child(g, label[t]); ok {
						f = kids[g][at]
						break
					}
					if g == 0 {
						break
					}
				}
			}
			fail[t] = f
			outLen[t] = outLen[f]
			if ownOut[t] != -1 {
				outLen[t]++
			}
			order = append(order, t)
		}
	}

	// Numbering: BFS order, states without outputs first.
	id := make([]int32, numStates)
	k := int32(0)
	for _, s := range order {
		if outLen[s] == 0 {
			id[s] = k
			k++
		}
	}
	a.outStart = k * width
	total := int32(0)
	for _, s := range order {
		if outLen[s] != 0 {
			id[s] = k
			k++
			total += outLen[s]
		}
	}

	// Rows and outputs in one BFS-order pass: a missing goto copies the
	// failure row, which BFS order has already completed, and an output
	// list is the state's own pattern then its failure state's list —
	// longest first. Output states come in id order here, so their spans
	// are laid down consecutively.
	w := int(width)
	a.next = make([]int32, int(numStates)*w)
	a.outOff = make([]int32, numStates+1)
	a.outPat = make([]int32, 0, total)
	for _, s := range order {
		row := a.next[int(id[s])*w : int(id[s]+1)*w]
		if s != 0 {
			f := int(id[fail[s]])
			copy(row, a.next[f*w:(f+1)*w])
		}
		for _, t := range kids[s] {
			row[label[t]] = id[t] * width
		}
		if outLen[s] != 0 {
			a.outOff[id[s]] = int32(len(a.outPat))
			if ownOut[s] != -1 {
				a.outPat = append(a.outPat, ownOut[s])
			}
			f := id[fail[s]]
			a.outPat = append(a.outPat, a.outPat[a.outOff[f]:a.outOff[f]+outLen[fail[s]]]...)
		}
	}
	a.outOff[numStates] = total
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
	h := getHits()
	defer hitPool.Put(h)
	s := int32(0)
	for off := 0; off < len(text); {
		var n int
		n, s = a.kernel(s, text[off:], h)
		for j := range h.n {
			for _, x := range h.lane(j) {
				to := off + int(x.end) + 1
				for _, p := range a.Outputs(x.state) {
					if err := emit(p, to-int(a.patLen[p]), to); err != nil {
						return err
					}
				}
			}
		}
		off += n
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
// per-shard buffers.
func (a *Automaton) MatchInto(text []byte, out []core.Match) {
	for i := range out {
		out[i] = core.None
	}
	h := getHits()
	s := int32(0)
	for off := 0; off < len(text); {
		var n int
		n, s = a.kernel(s, text[off:], h)
		for j := range h.n {
			for _, x := range h.lane(j) {
				end := off + int(x.end) + 1
				for _, p := range a.Outputs(x.state) {
					l := a.patLen[p]
					if start := end - int(l); out[start].Length < l {
						out[start] = core.Match{PatternID: p, Length: l}
					}
				}
			}
		}
		off += n
	}
	hitPool.Put(h)
}

// Match is the allocating convenience form of MatchInto.
func (a *Automaton) Match(text []byte) []core.Match {
	out := make([]core.Match, len(text))
	a.MatchInto(text, out)
	return out
}

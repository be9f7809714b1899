package ahocorasick

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Table is the read-only view of a compiled Aho–Corasick transition table
// that Certify checks. A state is named by its row offset, i × Width() for
// i in [0, NumStates()), and the root is 0. Row(q) is state q's row, one
// target per byte class; Step(q, b) is Row(q)[Class(b)]. Outputs(q) lists
// the pattern ids ending at q, longest first.
type Table interface {
	NumStates() int
	Width() int
	Class(b byte) int
	Row(q int32) []int32
	Step(q int32, b byte) int32
	HasOutputs(q int32) bool
	Outputs(q int32) []int32
	PatternLen(id int32) int32
	MaxPatternLen() int
}

// ErrNotCertified reports that a table is not the Aho–Corasick automaton of
// its patterns; the wrapped message names the first entry found wrong.
var ErrNotCertified = errors.New("ahocorasick: table not certified")

// Certify checks that t is exactly the Aho–Corasick automaton of patterns,
// with duplicates answering to their first id, as New builds it: the same
// transition from every state on every byte and the same outputs, so any
// scan of t reports what Match does. It shares no code with any compiler
// and trusts nothing t says about itself beyond the entries it reads.
//
// The automaton is uniquely determined by its patterns. With the trie
// embedded, δ(s,c) is the trie child of s on c if there is one and
// δ(fail(s),c) otherwise (the root: 0), fail(child(s,c)) = δ(fail(s),c),
// and out(s) = own(s) · out(fail(s)). Certify checks exactly that:
//   - the class map: each byte that occurs in a pattern has a non-zero class
//     of its own, and every other byte is class 0;
//   - the trie: walking each pattern through Step reaches a fresh state for
//     every distinct prefix, and there are exactly 1 + that many states;
//   - every row, in BFS order: each column of s that is not a trie edge
//     equals the same column of fail(s), or 0 at the root;
//   - the outputs of every state, PatternLen and MaxPatternLen.
//
// It runs in O(states × width + output entries) time, with O(states)
// scratch that is garbage when it returns. A table whose accessors panic —
// one built for fewer patterns, say — is not certified either.
func Certify(patterns [][]byte, t Table) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = notCertified("table panicked: %v", r)
		}
	}()
	if len(patterns) == 0 {
		return errors.New("ahocorasick: certify: empty dictionary")
	}
	n, w := t.NumStates(), t.Width()
	if n < 1 || w < 2 || int64(n)*int64(w) > 1<<31-1 {
		return notCertified("shape: %d states × %d classes", n, w)
	}

	// Class map.
	var used [256]bool
	maxLen := 0
	for id, p := range patterns {
		if len(p) == 0 {
			return fmt.Errorf("ahocorasick: certify: empty pattern %d", id)
		}
		maxLen = max(maxLen, len(p))
		if got := t.PatternLen(int32(id)); int(got) != len(p) {
			return notCertified("pattern %d has length %d, table says %d", id, len(p), got)
		}
		for _, c := range p {
			used[c] = true
		}
	}
	if got := t.MaxPatternLen(); got != maxLen {
		return notCertified("longest pattern is %d bytes, table says %d", maxLen, got)
	}
	owner := make([]int, w) // class -> byte + 1
	for b := range 256 {
		c := t.Class(byte(b))
		switch {
		case c < 0 || c >= w:
			return notCertified("byte %#x has class %d of %d", b, c, w)
		case !used[b] && c != 0:
			return notCertified("byte %#x is in no pattern but has class %d", b, c)
		case used[b] && c == 0:
			return notCertified("pattern byte %#x has the absent class", b)
		case used[b] && owner[c] != 0:
			return notCertified("bytes %#x and %#x share class %d", owner[c]-1, b, c)
		case used[b]:
			owner[c] = b + 1
		}
	}

	// Trie: each state's trie parent and the class of the edge into it, by
	// state index; parent -1 marks a state no prefix has reached yet.
	parent := make([]int32, n)
	label := make([]int32, n)
	own := make([]int32, n)
	for i := range parent {
		parent[i], own[i] = -1, -1
	}
	ix := newIndexer(n, w)
	fresh := 1 // the root
	for id, p := range patterns {
		s := int32(0)
		for d, b := range p {
			c := int32(t.Class(b))
			q := t.Step(s, b)
			if row := t.Row(s); len(row) != w || row[c] != q {
				return notCertified("Step(%d, %#x) = %d disagrees with the row", s, b, q)
			}
			i, ok := ix.index(q)
			if !ok {
				return notCertified("Step(%d, %#x) = %d is not a state", s, b, q)
			}
			si := ix.id(s)
			switch {
			case parent[i] == si && label[i] == c:
				// A prefix an earlier pattern spelled.
			case parent[i] != -1 || i == 0:
				return notCertified("pattern %d: prefix of %d bytes lands on state %d, which another prefix owns", id, d+1, q)
			default:
				parent[i], label[i] = si, c
				fresh++
			}
			s = q
		}
		if i := ix.id(s); own[i] == -1 {
			own[i] = int32(id) // duplicates answer to their first id
		}
	}
	if fresh != n {
		return notCertified("%d distinct prefixes need %d states, table has %d", fresh-1, fresh, n)
	}

	// Rows and outputs in BFS order: fail(s) is shallower than s, so its row
	// and outputs are certified by the time s's are compared with them, and
	// by induction every row is the automaton's.
	fail := make([]int32, n) // by state index, as a row offset
	queue := make([]int32, 1, n)
	zero := make([]int32, w)
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		si := ix.id(s)
		row, frow := t.Row(s), zero
		if s != 0 {
			frow = t.Row(fail[si])
		}
		if len(row) != w || len(frow) != w {
			return notCertified("row %d is %d entries wide, want %d", s, len(row), w)
		}
		frow = frow[:len(row)]
		for c0 := 0; c0 < len(row); c0 += 8 {
			// Most columns equal the failure row's: compare eight at a time,
			// and look at them one by one only when some differ.
			if c0+8 <= len(row) {
				r, f := row[c0:c0+8:c0+8], frow[c0:c0+8:c0+8]
				if (r[0]^f[0])|(r[1]^f[1])|(r[2]^f[2])|(r[3]^f[3])|(r[4]^f[4])|(r[5]^f[5])|(r[6]^f[6])|(r[7]^f[7]) == 0 {
					continue
				}
			}
			for c := c0; c < min(c0+8, len(row)); c++ {
				q := row[c]
				if q == frow[c] {
					continue
				}
				// Only a trie edge may differ from the failure row.
				i, ok := ix.index(q)
				if !ok || parent[i] != si || label[i] != int32(c) {
					return notCertified("δ(%d, class %d) = %d, want %d", s, c, q, frow[c])
				}
				fail[i] = 0
				if s != 0 {
					fail[i] = frow[c]
				}
				queue = append(queue, q)
			}
		}
		if err := certifyOutputs(t, s, own[si], fail[si]); err != nil {
			return err
		}
	}
	if len(queue) != n {
		// Every trie edge differs from its failure column in a certified
		// table, so this only fires when a trie edge was overwritten.
		return notCertified("BFS reached %d of %d states", len(queue), n)
	}
	return nil
}

// certifyOutputs checks that state s reports own (-1 for none) followed by
// the outputs of f, its certified failure state; the root has none.
func certifyOutputs(t Table, s, own, f int32) error {
	inherits := s != 0 && t.HasOutputs(f)
	if want := own != -1 || inherits; t.HasOutputs(s) != want {
		return notCertified("HasOutputs(%d) = %v, want %v", s, !want, want)
	}
	got := t.Outputs(s)
	if own != -1 {
		if len(got) == 0 || got[0] != own {
			return notCertified("state %d outputs %v, want pattern %d first", s, got, own)
		}
		got = got[1:]
	}
	var inherited []int32
	if inherits {
		inherited = t.Outputs(f)
	}
	if len(got) != len(inherited) {
		return notCertified("state %d inherits %d outputs, want %d", s, len(got), len(inherited))
	}
	for k := range got {
		if got[k] != inherited[k] {
			return notCertified("state %d output %d is %d, want %d", s, k, got[k], inherited[k])
		}
	}
	return nil
}

// indexer maps row offsets to state indexes in a table of n states of
// width w without a division: q / w is the high word of q × ⌈2⁶⁴/w⌉, exact
// for every 32-bit q (Lemire, Kaser & Kurz, 2019).
type indexer struct {
	magic uint64
	w     uint64
	end   int32 // n × w
}

func newIndexer(n, w int) indexer {
	return indexer{magic: math.MaxUint64/uint64(w) + 1, w: uint64(w), end: int32(n * w)}
}

// id returns the index of the state at row offset q, which must name one.
func (x indexer) id(q int32) int32 {
	hi, _ := bits.Mul64(x.magic, uint64(uint32(q)))
	return int32(hi)
}

// index returns the index of the state at row offset q, and false when q
// names no state.
func (x indexer) index(q int32) (int32, bool) {
	if q < 0 || q >= x.end {
		return 0, false
	}
	hi, _ := bits.Mul64(x.magic, uint64(q))
	return int32(hi), hi*x.w == uint64(q)
}

func notCertified(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNotCertified, fmt.Sprintf(format, args...))
}

package ahocorasick

// The canary's matcher: a naive walk over a table that Certify has already
// proved to be the automaton of its patterns. It reads nothing but the
// Table view — one Step per byte, the output list of each state that has
// one — so it shares the table with a fast scanner of it, and no line of the
// scanner's kernel, cursor, shards or segments.

// Walker walks a text fed in pieces, carrying its state across them: the
// output is Walk's M[] over the concatenation of every piece, for any
// cutting, in a ring of MaxPatternLen() open positions. Position i is final
// once byte i+MaxPatternLen()-1 has been fed, so after n bytes every
// position below n-MaxPatternLen()+1 has been reported.
type Walker struct {
	t    Table
	s    int32
	n    int64   // bytes fed
	span int64   // MaxPatternLen()
	ring []int32 // M[i] of each open position i at i & mask, -1 for none
	mask int64
}

// NewWalker returns a walker at the start of a text over t.
func NewWalker(t Table) *Walker {
	span := int64(max(t.MaxPatternLen(), 1))
	size := int64(1)
	for size < span {
		size <<= 1
	}
	ring := make([]int32, size)
	for i := range ring {
		ring[i] = -1
	}
	return &Walker{t: t, span: span, ring: ring, mask: size - 1}
}

// Feed walks p, the text's next bytes, and calls emit(i, id) in position
// order for every position i that p makes final and where pattern id is the
// longest starting there.
func (w *Walker) Feed(p []byte, emit func(i int64, id int32)) {
	t, s, ring, mask := w.t, w.s, w.ring, w.mask
	closing := w.n + 1 - w.span // the position the next byte makes final
	for _, b := range p {
		s = t.Step(s, b)
		if t.HasOutputs(s) {
			// Longest first, and a later end only lengthens a start's match,
			// so the last write to a slot is its M[i].
			end := closing + w.span
			for _, id := range t.Outputs(s) {
				ring[(end-int64(t.PatternLen(id)))&mask] = id
			}
		}
		if closing >= 0 {
			if slot := &ring[closing&mask]; *slot >= 0 {
				emit(closing, *slot)
				*slot = -1
			}
		}
		closing++
	}
	w.s, w.n = s, w.n+int64(len(p))
}

// Flush ends the text: the positions still open can gain no longer match,
// and are reported as they stand.
func (w *Walker) Flush(emit func(i int64, id int32)) {
	for i := max(w.n+1-w.span, 0); i < w.n; i++ {
		if slot := &w.ring[i&w.mask]; *slot >= 0 {
			emit(i, *slot)
			*slot = -1
		}
	}
}

// Walk returns M[] over text as t answers it: for each position the id of
// the longest pattern starting there, or -1 — what Match returns, when t
// is certified for the patterns Match was built from.
func Walk(t Table, text []byte) []int32 {
	m := make([]int32, len(text))
	for i := range m {
		m[i] = -1
	}
	record := func(i int64, id int32) { m[i] = id }
	w := NewWalker(t)
	w.Feed(text, record)
	w.Flush(record)
	return m
}

package stream

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/staticdict"
)

// PhraseEvent is one phrase of the streaming parse: text[Pos : Pos+Len] is
// dictionary word Word. Word is -1 only if the dictionary lacks the prefix
// property (then no word of length Len starts at the phrase's locus).
type PhraseEvent struct {
	Pos  int64
	Len  int32
	Word int32
}

// PhraseSink receives phrases left to right, each exactly once.
type PhraseSink interface {
	PhraseEvent(PhraseEvent) error
}

// Parse streams text from r and emits a fewest-phrases parse against the
// dictionary, assuming the prefix property (§5). It evaluates
// staticdict.FrontierParse's recurrence online: windows supply B[i] (via
// Step 1 + Step 2A on carry+segment, so finalized B values equal the
// full-text ones) and the frontier FSM carries only (p, end, far, argfar)
// plus two durable locus handles across window boundaries — O(1) parser
// state on top of the O(segment+halo) resident text. The emitted phrase
// sequence is byte-identical to FrontierParse on the whole text, hence
// count-equal to OptimalParse.
//
// Note the parser is intentionally NOT GreedyParse run per segment: greedy
// is not count-optimal under the prefix property alone (see the
// greedy-optimality tests in staticdict), and the frontier rule needs the
// same bounded lookahead while being exact.
func Parse(ctx context.Context, d *core.Dictionary, m *pram.Machine, r io.Reader, sink PhraseSink, cfg Config) (Stats, error) {
	var st Stats

	// Frontier FSM over absolute positions (see staticdict.FrontierParse).
	var (
		p      int64      // start of the phrase being decided
		end    int64      // furthest boundary reachable from committed phrases
		far    int64 = -1 // best candidate boundary in (p, end] ...
		argfar int64 = -1 // ... and the position that realizes it
		pRef   core.LocusRef
		argRef core.LocusRef
		n      int64 // text length seen so far
	)
	emit := func(pos, length int64, ref core.LocusRef) error {
		st.Events++
		return sink.PhraseEvent(PhraseEvent{Pos: pos, Len: int32(length), Word: d.ResolveWord(ref, int32(length))})
	}
	commit := func() error {
		if argfar < 0 || far <= end {
			return staticdict.ErrNoParse
		}
		if err := emit(p, argfar-p, pRef); err != nil {
			return err
		}
		p, end, pRef = argfar, far, argRef
		far, argfar = -1, -1
		return nil
	}

	err := runWindows(ctx, r, cfg.segmentSize(), d.MaxPatternLen()-1, &st, sink, func(window []byte, base int64, final int, last bool) error {
		if len(window) > 0 && final > 0 {
			before := m.Snapshot()
			b, refs := d.PrefixStream(m, window)
			after := m.Snapshot()
			st.Work += after.Work - before.Work
			st.Depth += after.Depth - before.Depth
			for i := 0; i < final; i++ {
				a := base + int64(i)
				if a == 0 {
					if b[0] < 1 {
						return staticdict.ErrNoParse
					}
					p, end, pRef = 0, int64(b[0]), refs[0]
					continue
				}
				if a > end {
					if err := commit(); err != nil {
						return err
					}
				}
				if reach := a + int64(b[i]); reach > far {
					far, argfar, argRef = reach, a, refs[i]
				}
			}
		}
		n = base + int64(final)
		if last && n > 0 {
			for end < n {
				if err := commit(); err != nil {
					return err
				}
			}
			if err := emit(p, n-p, pRef); err != nil {
				return err
			}
		}
		return nil
	})
	return st, err
}

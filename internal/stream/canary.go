package stream

import (
	"errors"
	"math"
	"time"

	"repro/internal/ahocorasick"
)

// ErrDiverged fails a canary turn whose scan found other events than the
// canary's walk over the same bytes: a fault in the code that scans the
// table, since the walk reads the same certified table.
var ErrDiverged = errors.New("dense matches diverged from the canary's walk over the certified table")

// Canary is one canary turn over one text. It checks the events a scan of a
// certified table found against ahocorasick's naive walk over that table,
// which shares the table and no line of the scanner's kernel, cursor,
// shards, segments or resync. It is fed the scan's events (Hold) and then
// the bytes the scan read (Feed), and passes an event on only once the walk
// has closed its position with the same pattern and length. Any other
// event, one the walk found and the scan did not, or one left over at the
// end fails the turn with ErrDiverged.
type Canary struct {
	Nanos int64 // time the walk has taken

	walk  *ahocorasick.Walker
	agree func(i int64, id int32) // the walk's emit: the compare
	span  int64                   // MaxPatternLen()
	fed   int64                   // bytes walked
	held  []MatchEvent            // the scan's events not yet passed on
	k     int                     // held[:k] agree with the walk
	wrong bool                    // a held event disagreed with the walk
}

// NewCanary returns a turn at the start of a text over t.
func NewCanary(t ahocorasick.Table) *Canary {
	c := &Canary{walk: ahocorasick.NewWalker(t), span: int64(max(t.MaxPatternLen(), 1))}
	c.agree = func(i int64, id int32) {
		if c.k < len(c.held) && c.held[c.k] == (MatchEvent{Pos: i, PatternID: id, Length: t.PatternLen(id)}) {
			c.k++
		} else {
			c.wrong = true
		}
	}
	return c
}

// Hold records an event the scan found, in position order.
func (c *Canary) Hold(e MatchEvent) { c.held = append(c.held, e) }

// Feed walks p, the scan's next bytes (last: its final ones), and passes
// every held event whose position the walk has now closed to pass, in
// order; or fails with ErrDiverged, having passed none of them.
func (c *Canary) Feed(p []byte, last bool, pass func(MatchEvent) error) error {
	start := time.Now()
	c.walk.Feed(p, c.agree)
	c.fed += int64(len(p))
	closed := c.fed + 1 - c.span
	if last {
		c.walk.Flush(c.agree)
		closed = math.MaxInt64
	}
	c.Nanos += time.Since(start).Nanoseconds()
	if c.wrong || c.k < len(c.held) && c.held[c.k].Pos < closed {
		return ErrDiverged
	}
	for _, e := range c.held[:c.k] {
		if err := pass(e); err != nil {
			return err
		}
	}
	c.held = c.held[:copy(c.held, c.held[c.k:])]
	c.k = 0
	return nil
}

// Check is a whole text's turn: the held events and then evs must be
// exactly the walk's over text.
func (c *Canary) Check(text []byte, evs ...MatchEvent) error {
	c.held = append(c.held, evs...)
	return c.Feed(text, true, func(MatchEvent) error { return nil })
}

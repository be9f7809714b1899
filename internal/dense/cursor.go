package dense

import (
	"errors"

	"repro/internal/chaos"
	"repro/internal/core"
)

// Cursor matches a text that arrives in chunks, carrying the automaton
// state across them: the output is MatchInto's M[i] over the concatenation
// of every chunk fed, for any chunking, in O(MaxPatternLen) working space
// and with no re-scan at chunk boundaries.
//
// Finalization. M[i] is the longest pattern starting at i, and a pattern
// starting at i ends at or before byte i+MaxPatternLen()-1. The automaton
// reports an occurrence when it consumes the occurrence's last byte, so
// once byte i+MaxPatternLen()-1 has been consumed every candidate for M[i]
// has been seen and M[i] is final. A cursor that has consumed n bytes
// therefore has exactly the positions [n-MaxPatternLen()+1, n) still open —
// fewer than MaxPatternLen() of them — and keeps them in a ring of at least
// that many slots, position p in slot p mod len(ring). Feed runs the scan
// kernel over the chunk and replays its hits in end order: before the
// occurrences ending at byte e are folded in, every position that byte e-1
// closed is emitted, so positions come out in order, and a position with no
// match costs nothing. Flush closes the rest at end of text.
//
// A Cursor is single-use and not safe for concurrent use; many cursors may
// share one Automaton.
type Cursor struct {
	a       *Automaton
	state   int32
	pos     int64        // bytes consumed = absolute offset of the next byte
	flushed int64        // every position below it has been emitted
	pending int          // ring slots holding a match
	ring    []core.Match // open positions; an empty slot has Length 0
	hits    *hits        // the kernel's output buffer, from hitPool until Flush
	err     error        // sticky: the first emit error
}

// ErrCursorDone is returned by Feed and Flush on a cursor that has been
// flushed: its text has ended.
var ErrCursorDone = errors.New("dense: cursor already flushed")

// NewCursor returns a cursor at the start of a text. It allocates the ring
// (8 bytes per slot, a power of two at least MaxPatternLen()); Feed takes a
// pooled hit buffer that Flush gives back, and neither allocates.
func (a *Automaton) NewCursor() *Cursor {
	n := 1
	for n < int(a.maxPatLen) {
		n <<= 1
	}
	return &Cursor{a: a, ring: make([]core.Match, n)}
}

// Pos returns the number of bytes consumed so far. Every position below
// Pos()-MaxPatternLen()+1 has been emitted (or had no match).
func (c *Cursor) Pos() int64 { return c.pos }

// Feed consumes chunk and calls emit, in position order, once for every
// position with a match that the chunk finalizes — pos is the absolute
// offset in the fed text, m the longest pattern starting there. An error
// from emit aborts the scan and poisons the cursor: that error is returned
// now and by every later call, since events past it are lost.
func (c *Cursor) Feed(chunk []byte, emit func(pos int64, m core.Match) error) error {
	if c.err != nil {
		return c.err
	}
	if len(chunk) == 0 {
		return nil
	}
	if c.hits == nil {
		c.hits = getHits()
	}
	a, h := c.a, c.hits
	ring, mask := c.ring, int64(len(c.ring)-1)
	maxLen := int64(a.maxPatLen)
	flushed, pending := c.flushed, c.pending
	for off := 0; off < len(chunk); {
		n, s := a.kernel(c.state, chunk[off:], h)
		base := c.pos + int64(off) + 1
		for j := range h.n {
			for _, x := range h.lane(j) {
				end := base + int64(x.end) // one past the occurrences' last byte
				// Every position below end-maxLen was closed by an earlier
				// byte; emit those before this byte's occurrences go in.
				// This is flushTo on locals, written out: as a call per hit
				// it cost a tenth of Feed's speed on match-dense text.
				for ; flushed < end-maxLen && pending != 0; flushed++ {
					if slot := &ring[flushed&mask]; slot.Length != 0 {
						m := *slot
						*slot = core.Match{}
						pending--
						if err := emit(flushed, m); err != nil {
							return c.fail(err)
						}
					}
				}
				flushed = max(flushed, end-maxLen)
				for _, p := range a.Outputs(x.state) {
					l := a.patLen[p]
					slot := &ring[(end-int64(l))&mask]
					if slot.Length < l {
						if slot.Length == 0 {
							pending++
						}
						*slot = core.Match{PatternID: p, Length: l}
					}
				}
			}
		}
		c.state = s
		off += n
	}
	c.flushed, c.pending = flushed, pending
	c.pos += int64(len(chunk))
	if err := c.flushTo(c.pos-maxLen+1, emit); err != nil {
		return c.fail(err)
	}
	return nil
}

// flushTo emits every pending position below limit, in order.
func (c *Cursor) flushTo(limit int64, emit func(pos int64, m core.Match) error) error {
	mask := int64(len(c.ring) - 1)
	for ; c.flushed < limit && c.pending != 0; c.flushed++ {
		if slot := &c.ring[c.flushed&mask]; slot.Length != 0 {
			m := *slot
			*slot = core.Match{}
			c.pending--
			if err := emit(c.flushed, m); err != nil {
				return err
			}
		}
	}
	c.flushed = max(c.flushed, limit)
	return nil
}

// fail poisons the cursor with err and gives its hit buffer back.
func (c *Cursor) fail(err error) error {
	c.err = err
	c.release()
	return err
}

func (c *Cursor) release() {
	if c.hits != nil {
		hitPool.Put(c.hits)
		c.hits = nil
	}
}

// Flush ends the text: the positions still open can gain no longer match,
// so they are emitted as they stand. The cursor accepts no further calls.
func (c *Cursor) Flush(emit func(pos int64, m core.Match) error) error {
	c.release()
	if c.err != nil {
		return c.err
	}
	c.err = ErrCursorDone
	if chaos.Fire(chaos.DenseDrop) {
		// The chaos point: the text's last position loses its match.
		if last := &c.ring[(c.pos-1)&int64(len(c.ring)-1)]; last.Length != 0 {
			*last = core.Match{}
			c.pending--
		}
	}
	if err := c.flushTo(c.pos, emit); err != nil {
		c.err = err
		return err
	}
	return nil
}

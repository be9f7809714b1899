package dense

import (
	"errors"

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
// fewer than MaxPatternLen() of them — and keeps them in a ring of that
// many slots, position p in slot p mod MaxPatternLen(). Feed emits every
// position the chunk closes, in position order; Flush closes the rest at
// end of text.
//
// A Cursor is single-use and not safe for concurrent use; many cursors may
// share one Automaton.
type Cursor struct {
	a       *Automaton
	state   int32
	pos     int64        // bytes consumed = absolute offset of the next byte
	slot    int          // pos mod len(ring)
	pending int          // ring slots holding a match
	ring    []core.Match // open positions; an empty slot has Length 0
	err     error        // sticky: the first emit error
}

// ErrCursorDone is returned by Feed and Flush on a cursor that has been
// flushed: its text has ended.
var ErrCursorDone = errors.New("dense: cursor already flushed")

// NewCursor returns a cursor at the start of a text. It allocates the ring
// (8 bytes per slot); Feed and Flush allocate nothing.
func (a *Automaton) NewCursor() *Cursor {
	return &Cursor{a: a, ring: make([]core.Match, a.maxPatLen)}
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
	a := c.a
	w := int(a.width)
	next := a.next
	ring := c.ring
	l := len(ring)
	s, slot, pending := c.state, c.slot, c.pending
	for i := 0; i < len(chunk); i++ {
		s = next[int(s)*w+int(a.symClass[chunk[i]])]
		if off, end := a.outOff[s], a.outOff[s+1]; off != end {
			// Occurrences ending at this byte (ring slot `slot`): a pattern
			// of length n starts n-1 slots back.
			for _, p := range a.outPat[off:end] {
				n := a.patLen[p]
				at := slot + 1 - int(n)
				if at < 0 {
					at += l
				}
				if ring[at].Length < n {
					if ring[at].Length == 0 {
						pending++
					}
					ring[at] = core.Match{PatternID: p, Length: n}
				}
			}
		}
		if slot++; slot == l {
			slot = 0
		}
		// This byte closed position pos-l+1, which lives in the slot the
		// next byte's position is about to reuse.
		if pending != 0 && ring[slot].Length != 0 {
			m := ring[slot]
			ring[slot] = core.Match{}
			pending--
			if err := emit(c.pos+int64(i)+1-int64(l), m); err != nil {
				c.err = err
				return err
			}
		}
	}
	c.state, c.slot, c.pending = s, slot, pending
	c.pos += int64(len(chunk))
	return nil
}

// Flush ends the text: the positions still open can gain no longer match,
// so they are emitted as they stand. The cursor accepts no further calls.
func (c *Cursor) Flush(emit func(pos int64, m core.Match) error) error {
	if c.err != nil {
		return c.err
	}
	c.err = ErrCursorDone
	l := len(c.ring)
	slot := c.slot
	for k := 1; k < l && c.pending != 0; k++ {
		if slot++; slot == l {
			slot = 0
		}
		if m := c.ring[slot]; m.Length != 0 {
			c.ring[slot] = core.Match{}
			c.pending--
			if err := emit(c.pos-int64(l)+int64(k), m); err != nil {
				c.err = err
				return err
			}
		}
	}
	return nil
}

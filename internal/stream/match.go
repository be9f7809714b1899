package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
)

// MatchEvent is one dictionary match in the stream: the longest pattern
// starting at absolute text position Pos (the paper's M[i], restricted to
// positions where a pattern matches at all).
type MatchEvent struct {
	Pos       int64
	PatternID int32
	Length    int32
}

// MatchSink receives match events in position order, each exactly once.
type MatchSink interface {
	MatchEvent(MatchEvent) error
}

// TextMatcher runs the batch matcher on one window. It abstracts who owns
// the dictionary and the machine: the CLI wraps a Dictionary directly
// (DictMatcher); the server wraps a registry entry, whose MatchWindow also
// takes the read lock and charges the service metrics.
type TextMatcher interface {
	// MaxPatternLen bounds the lookahead of any per-position output — the
	// halo the pipeline must carry between windows.
	MaxPatternLen() int
	// MatchWindow returns per-position longest matches for the window
	// (len(result) == len(window)), the Las Vegas round count, and the
	// PRAM ledger delta the call charged.
	MatchWindow(ctx context.Context, window []byte) ([]core.Match, int, pram.Counters, error)
}

// DictMatcher is the direct TextMatcher over a preprocessed dictionary and
// a caller-owned machine: checked (Las Vegas) matching per window.
type DictMatcher struct {
	Dict *core.Dictionary
	M    *pram.Machine
}

// MaxPatternLen implements TextMatcher.
func (dm DictMatcher) MaxPatternLen() int { return dm.Dict.MaxPatternLen() }

// MatchWindow implements TextMatcher with MatchLasVegas and a ledger delta
// read off the machine's counters.
func (dm DictMatcher) MatchWindow(_ context.Context, window []byte) ([]core.Match, int, pram.Counters, error) {
	before := dm.M.Snapshot()
	matches, rounds := dm.Dict.MatchLasVegas(dm.M, window)
	after := dm.M.Snapshot()
	return matches, rounds, pram.Counters{Work: after.Work - before.Work, Depth: after.Depth - before.Depth}, nil
}

// Match streams text from r through tm and emits every position's longest
// match to sink, in absolute position order, each position exactly once.
// The emitted events are identical to running the batch matcher on the
// whole text: a finalized position i has its full MaxPatternLen() lookahead
// inside the window, so every candidate occurrence fits and the
// window-local M[i] equals the full-text M[i]; non-finalized tail positions
// are suppressed here and re-emitted authoritatively by the next window.
func Match(ctx context.Context, tm TextMatcher, r io.Reader, sink MatchSink, cfg Config) (Stats, error) {
	var st Stats
	halo := tm.MaxPatternLen() - 1
	if halo < 0 {
		halo = 0
	}
	obs, _ := sink.(SegmentObserver)
	err := runWindows(ctx, r, cfg.segmentSize(), halo, &st, func(window []byte, base int64, final int, last bool) error {
		var rounds int
		var cost pram.Counters
		if len(window) > 0 {
			matches, rnds, c, err := tm.MatchWindow(ctx, window)
			if err != nil {
				return err
			}
			if len(matches) != len(window) {
				return fmt.Errorf("stream: matcher returned %d positions for a %d-byte window", len(matches), len(window))
			}
			rounds, cost = rnds, c
			for i := 0; i < final; i++ {
				if matches[i].Length > 0 {
					st.Events++
					e := MatchEvent{Pos: base + int64(i), PatternID: matches[i].PatternID, Length: matches[i].Length}
					if err := sink.MatchEvent(e); err != nil {
						return err
					}
				}
			}
			st.Rounds += rounds
			st.Work += cost.Work
			st.Depth += cost.Depth
		}
		if obs != nil {
			return obs.SegmentDone(SegmentInfo{
				Index: st.Segments - 1, Base: base, WindowLen: len(window),
				Finalized: final, Last: last, Rounds: rounds,
				Work: cost.Work, Depth: cost.Depth,
			})
		}
		return nil
	})
	return st, err
}

// Oracle makes a MatchDense run a verified one: every window is also matched
// by an independent matcher, and the cursor's events for the window are
// held back until they have been compared with it.
type Oracle struct {
	// Matcher is presented with each halo window, exactly as Match would
	// present it, and must answer every one: an error ends the stream.
	Matcher TextMatcher
	// Patterns is the dictionary both sides number. Ids may differ where
	// patterns are duplicated (the implementations pick different
	// representatives); such events agree when they spell the same bytes.
	Patterns [][]byte
}

// MatchDense is Match on a compiled automaton: the same events as Match
// with a checked matcher over the same dictionary, for every SegmentBytes,
// from one carried-state cursor instead of a matcher run per halo window.
// The pipeline carries no halo — each segment is scanned once, in the
// buffer it was read into, and the cursor's ring of MaxPatternLen() open
// positions is the only state that crosses a segment boundary. Stats follow
// the dense convention: Rounds is 1, Work and Depth the bytes scanned.
//
// With a non-nil oracle the pipeline cuts the halo windows Match would and
// shows each to oracle.Matcher, feeding the cursor the window's fresh bytes
// only. Both sides finalize position i at byte i+MaxPatternLen()-1, so
// after window k both have closed exactly the positions below the window's
// finalized bound, and the comparison is per window: where the cursor's
// events differ, the oracle's are emitted in their place and
// Stats.Diverged counts the window. No event reaches the sink uncompared.
func MatchDense(ctx context.Context, a *dense.Automaton, oracle *Oracle, r io.Reader, sink MatchSink, cfg Config) (Stats, error) {
	st := Stats{Rounds: 1}
	halo := 0
	if oracle != nil {
		// The oracle's lookahead, not just the automaton's: an automaton
		// compiled from the wrong patterns may think them shorter, and the
		// windows must still be ones the oracle answers exactly. (The
		// finalized ranges then differ, the windows diverge, and the
		// oracle's events are what is served — as they should be.)
		halo = max(a.MaxPatternLen(), oracle.Matcher.MaxPatternLen()) - 1
	}
	obs, _ := sink.(SegmentObserver)
	cur := a.NewCursor()
	emit := func(pos int64, m core.Match) error {
		st.Events++
		return sink.MatchEvent(MatchEvent{Pos: pos, PatternID: m.PatternID, Length: m.Length})
	}
	var held []MatchEvent // one window's events, awaiting the oracle
	hold := func(pos int64, m core.Match) error {
		held = append(held, MatchEvent{Pos: pos, PatternID: m.PatternID, Length: m.Length})
		return nil
	}
	out := emit
	if oracle != nil {
		out = hold
	}
	err := runWindows(ctx, r, cfg.segmentSize(), halo, &st, func(window []byte, base int64, final int, last bool) error {
		fresh := window[cur.Pos()-base:]
		held = held[:0]
		if err := cur.Feed(fresh, out); err != nil {
			return err
		}
		if last {
			if err := cur.Flush(out); err != nil {
				return err
			}
		}
		st.Work += int64(len(fresh))
		st.Depth += int64(len(fresh))
		if oracle != nil && len(window) > 0 {
			var err error
			if held, err = oracle.settle(ctx, &st, window, base, final, held); err != nil {
				return err
			}
		}
		for _, e := range held {
			st.Events++
			if err := sink.MatchEvent(e); err != nil {
				return err
			}
		}
		if obs != nil {
			return obs.SegmentDone(SegmentInfo{
				Index: st.Segments - 1, Base: base, WindowLen: len(window),
				Finalized: final, Last: last, Rounds: 1,
				Work: int64(len(fresh)), Depth: int64(len(fresh)),
			})
		}
		return nil
	})
	return st, err
}

// settle shows one window to the oracle and returns the events to emit for
// its finalized range: held, the cursor's, when the oracle agrees, the
// oracle's own otherwise.
func (o *Oracle) settle(ctx context.Context, st *Stats, window []byte, base int64, final int, held []MatchEvent) ([]MatchEvent, error) {
	want, _, _, err := o.Matcher.MatchWindow(ctx, window)
	if err != nil {
		return held, err
	}
	if len(want) != len(window) {
		return nil, fmt.Errorf("stream: oracle returned %d positions for a %d-byte window", len(want), len(window))
	}
	st.Verified++
	if SameEvents(o.Patterns, held, want[:final], base) {
		return held, nil
	}
	st.Diverged++
	return AppendEvents(held[:0], want[:final], base), nil
}

// AppendEvents appends to dst the matches in an M[] whose first entry is
// text position base, as events — the form SameEvents compares.
func AppendEvents(dst []MatchEvent, matches []core.Match, base int64) []MatchEvent {
	for i, m := range matches {
		if m.Length > 0 {
			dst = append(dst, MatchEvent{Pos: base + int64(i), PatternID: m.PatternID, Length: m.Length})
		}
	}
	return dst
}

// SameEvents reports whether got is exactly the matches in want, whose
// first entry is text position base: same positions, same lengths, and the
// same spelled pattern where the ids differ. It is the one comparison every
// oracle turn — a stream window here, a whole text in the server —
// goes through.
func SameEvents(patterns [][]byte, got []MatchEvent, want []core.Match, base int64) bool {
	k := 0
	for i, m := range want {
		if m.Length == 0 {
			continue
		}
		if k == len(got) {
			return false
		}
		g := got[k]
		k++
		if g.Pos != base+int64(i) || g.Length != m.Length {
			return false
		}
		if g.PatternID != m.PatternID && !samePattern(patterns, g.PatternID, m.PatternID) {
			return false
		}
	}
	return k == len(got)
}

func samePattern(patterns [][]byte, a, b int32) bool {
	if a < 0 || b < 0 || int(a) >= len(patterns) || int(b) >= len(patterns) {
		return false
	}
	return bytes.Equal(patterns[a], patterns[b])
}

package stream

import (
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
	err := runWindows(ctx, r, cfg.segmentSize(), tm.MaxPatternLen()-1, &st, sink, func(window []byte, base int64, final int, last bool) error {
		if len(window) > 0 {
			matches, rounds, cost, err := tm.MatchWindow(ctx, window)
			if err != nil {
				return err
			}
			if len(matches) != len(window) {
				return fmt.Errorf("stream: matcher returned %d positions for a %d-byte window", len(matches), len(window))
			}
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
		return nil
	})
	return st, err
}

// MatchDense is Match on a compiled automaton: the same events as Match
// with a checked matcher over the same dictionary, for every SegmentBytes,
// from one carried-state cursor instead of a matcher run per halo window.
// The pipeline carries no halo — each segment is scanned once, in the
// buffer it was read into, and the cursor's ring of MaxPatternLen() open
// positions is the only state that crosses a segment boundary. Stats follow
// the dense convention: Rounds is 1, Work and Depth the bytes scanned.
//
// A non-nil canary makes the run a canary turn over a, the certified table
// (nil off a turn): the cursor's events are held by the canary, which walks
// each segment after the cursor has and passes an event on to sink only once
// its walk has found the same one. A divergence ends the run with
// ErrDiverged, and nothing of that segment is sent. The segments, and so
// Stats, are those of a run without it.
func MatchDense(ctx context.Context, a *dense.Automaton, canary *Canary, r io.Reader, sink MatchSink, cfg Config) (Stats, error) {
	st := Stats{Rounds: 1}
	send := func(e MatchEvent) error {
		st.Events++
		return sink.MatchEvent(e)
	}
	emit := func(pos int64, m core.Match) error {
		e := MatchEvent{Pos: pos, PatternID: m.PatternID, Length: m.Length}
		if canary != nil {
			canary.Hold(e)
			return nil
		}
		st.Events++
		return sink.MatchEvent(e)
	}
	cur := a.NewCursor()
	err := runWindows(ctx, r, cfg.segmentSize(), 0, &st, sink, func(segment []byte, _ int64, _ int, last bool) error {
		if err := cur.Feed(segment, emit); err != nil {
			return err
		}
		if last {
			if err := cur.Flush(emit); err != nil {
				return err
			}
		}
		st.Work += int64(len(segment))
		st.Depth += int64(len(segment))
		if canary != nil {
			return canary.Feed(segment, last, send)
		}
		return nil
	})
	return st, err
}

// AppendEvents appends to dst the matches in an M[] whose first entry is
// text position base, as events.
func AppendEvents(dst []MatchEvent, matches []core.Match, base int64) []MatchEvent {
	for i, m := range matches {
		if m.Length > 0 {
			dst = append(dst, MatchEvent{Pos: base + int64(i), PatternID: m.PatternID, Length: m.Length})
		}
	}
	return dst
}

package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/ahocorasick"
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

// ErrDiverged ends a canary run of MatchDense whose cursor finalized other
// events than the canary's walk over the same bytes: a fault in the code
// that scans the table, since the walk reads the same certified table.
var ErrDiverged = errors.New("stream: dense events diverged from the canary walk")

// MatchDense is Match on a compiled automaton: the same events as Match
// with a checked matcher over the same dictionary, for every SegmentBytes,
// from one carried-state cursor instead of a matcher run per halo window.
// The pipeline carries no halo — each segment is scanned once, in the
// buffer it was read into, and the cursor's ring of MaxPatternLen() open
// positions is the only state that crosses a segment boundary. Stats follow
// the dense convention: Rounds is 1, Work and Depth the bytes scanned.
//
// A non-nil canary makes the run a canary turn: canary is the certified
// table a scans (the server passes a itself), and ahocorasick's naive walk
// over it reads every segment after the cursor has. Both finalize position
// i at byte i+MaxPatternLen()-1, so after each segment both have closed the
// same positions; the cursor's events for the segment are held until the
// walk has read its bytes, and are sent only if the walk found the same
// ones. Otherwise the run ends with ErrDiverged and nothing of that segment
// is sent. The segments, and so Stats, are those of a run without it.
func MatchDense(ctx context.Context, a, canary *dense.Automaton, r io.Reader, sink MatchSink, cfg Config) (Stats, error) {
	st := Stats{Rounds: 1}
	obs, _ := sink.(SegmentObserver)
	var walk *ahocorasick.Walker
	if canary != nil {
		walk = ahocorasick.NewWalker(canary)
	}
	var held, walked []MatchEvent // a turn's segment: the cursor's events, the walk's
	emit := func(pos int64, m core.Match) error {
		e := MatchEvent{Pos: pos, PatternID: m.PatternID, Length: m.Length}
		if walk != nil {
			held = append(held, e)
			return nil
		}
		st.Events++
		return sink.MatchEvent(e)
	}
	record := func(pos int64, id int32) {
		walked = append(walked, MatchEvent{Pos: pos, PatternID: id, Length: canary.PatternLen(id)})
	}
	cur := a.NewCursor()
	err := runWindows(ctx, r, cfg.segmentSize(), 0, &st, func(segment []byte, base int64, final int, last bool) error {
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
		if walk != nil {
			walk.Feed(segment, record)
			if last {
				walk.Flush(record)
			}
			if !slices.Equal(held, walked) {
				return fmt.Errorf("%w in the segment at byte %d", ErrDiverged, base)
			}
			for _, e := range held {
				st.Events++
				if err := sink.MatchEvent(e); err != nil {
					return err
				}
			}
			held, walked = held[:0], walked[:0]
		}
		if obs != nil {
			return obs.SegmentDone(SegmentInfo{
				Index: st.Segments - 1, Base: base, WindowLen: len(segment),
				Finalized: final, Last: last, Rounds: 1,
				Work: int64(len(segment)), Depth: int64(len(segment)),
			})
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

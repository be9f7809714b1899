package server

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
	"repro/internal/stream"
)

// Dense serving path. Every registration publishes its dictionary with the
// compiled internal/dense automaton already on the entry — restored from the
// bundle's DENSE section or compiled from the patterns before
// Registry.Insert, with no §3 preprocessing — so an entry never changes
// engine after it is published: it serves from the automaton, or from the
// tree-walk Las Vegas matcher when there is none (-dense off, or a table
// over budget), and then its §3 stage is built at publish. Every dense route
// — /match and Server.Match here, /match/stream, the compressed routes —
// reads the automaton through Entry.certified and takes and settles its
// canary turns through Entry.canary and Server.settle (oracle.go); a whole
// text is cut by shardScan (match.go), the shard loop of both engines.

// Dense serving modes (Config.DenseMode).
const (
	DenseOff = "off" // never compile, always tree walk
	DenseOn  = "on"  // compile at registration, before the entry is published
)

// denseOptions builds the compile options from the server config.
func (s *Server) denseOptions() dense.Options {
	return dense.Options{MaxTableBytes: s.cfg.DenseMaxTableBytes}
}

// automatonFor returns the automaton a dictionary of these patterns is
// published with: aut when its bundle carried one, else a synchronous
// dense.Compile of the patterns. It is nil under -dense off and when the
// compile is refused (typically ErrTableTooLarge), and then the entry serves
// from the tree walk for good. compiled reports that a compile ran here —
// the cue to write a cached bundle back with its DENSE section.
func (s *Server) automatonFor(patterns [][]byte, aut *dense.Automaton) (a *dense.Automaton, compiled bool) {
	if s.cfg.DenseMode == DenseOff {
		return nil, false
	}
	if aut != nil {
		s.metrics.denseLoads.Add(1)
		return aut, false
	}
	start := time.Now()
	a, err := dense.Compile(patterns, s.denseOptions())
	if err != nil {
		s.metrics.denseCompileFails.Add(1)
		s.cfg.Log.Printf("dense compile of %d patterns refused: %v; serving from tree walk", len(patterns), err)
		return nil, false
	}
	s.metrics.denseCompiles.Add(1)
	s.metrics.denseCompileNanos.Add(time.Since(start).Nanoseconds())
	s.metrics.denseTableBytes.Add(a.Stats().TableBytes)
	return a, true
}

// Engine labels for matchResponse.Engine.
const (
	engineDense = "dense"
	engineTree  = "tree"
)

// serveMatch answers one match request through the fastest correct path:
// the compiled dense automaton when the entry has one (deterministic — no
// Las Vegas loop, no attempts), otherwise the checked tree-walk matcher.
// The automaton answers once it is certified (oracle.go), and on a canary
// turn only if the walk over it agrees. The dense path also serves entries
// whose circuit breaker is open — neither the automaton nor the walk
// depends on the fingerprint state the breaker protects.
// The matches come back as events in position order, written over buf's
// contents and into its storage.
func (s *Server) serveMatch(ctx context.Context, e *Entry, text []byte, buf []stream.MatchEvent) ([]stream.MatchEvent, int, string, error) {
	evs := buf[:0]
	a, err := e.certified(s)
	if err != nil {
		return evs, 0, engineDense, err
	}
	if a == nil {
		if s.cfg.DenseMode != DenseOff {
			s.metrics.denseFallback.Add(1)
		}
		matches, attempts, _, err := e.MatchChecked(ctx, text, s.cfg.Procs, s.metrics)
		return stream.AppendEvents(evs, matches, 0), attempts, engineTree, err
	}

	c := e.canary(&e.denseReqs, a)
	evs, counters := denseEvents(a, text, s.cfg.Procs, evs)
	s.metrics.ChargePRAM("match", counters.Work, counters.Depth)
	if c != nil {
		if err := s.settle(e, c, c.Check(text, evs...), &s.metrics.denseVerifyPass, &s.metrics.denseVerifyFail); err != nil {
			return evs[:0], 1, engineDense, err
		}
	}
	s.metrics.denseServed.Add(1)
	return evs, 1, engineDense, nil
}

// denseEvents appends to dst the matches of the automaton over text, as
// events in position order: one cursor per shard (shardScan), whose events,
// concatenated in shard order, are the whole text's. Work is the bytes
// scanned, halos included, and Depth the largest shard's.
func denseEvents(a *dense.Automaton, text []byte, procs int, dst []stream.MatchEvent) ([]stream.MatchEvent, pram.Counters) {
	n := len(text)
	shards := shardCount(n, procs)
	if shards <= 1 {
		return cursorEvents(a, text, n, 0, dst), pram.Counters{Work: int64(n), Depth: int64(n)}
	}
	parts := make([]*[]stream.MatchEvent, shards)
	counters := shardScan(n, shards, a.MaxPatternLen()-1, func(w, start, end, stop int) pram.Counters {
		parts[w] = eventPool.get()
		*parts[w] = cursorEvents(a, text[start:stop], end-start, int64(start), *parts[w])
		return pram.Counters{Work: int64(stop - start), Depth: int64(stop - start)}
	})
	for _, part := range parts {
		if part != nil {
			dst = append(dst, *part...)
			eventPool.put(part)
		}
	}
	return dst, counters
}

// cursorEvents appends to dst the matches a cursor finds in window at
// positions below limit, as events at base plus the position.
func cursorEvents(a *dense.Automaton, window []byte, limit int, base int64, dst []stream.MatchEvent) []stream.MatchEvent {
	emit := func(pos int64, m core.Match) error {
		if pos < int64(limit) {
			dst = append(dst, stream.MatchEvent{Pos: base + pos, PatternID: m.PatternID, Length: m.Length})
		}
		return nil
	}
	// emit returns no error, so neither do Feed and Flush.
	cur := a.NewCursor()
	_ = cur.Feed(window, emit)
	_ = cur.Flush(emit)
	return dst
}

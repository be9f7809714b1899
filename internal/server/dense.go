package server

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
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
// over budget), and then its §3 stage is built at publish. Every route reads
// the automaton through Entry.certified, which certifies it before its first
// answer and repairs a table that fails; canary turns then walk the
// certified table beside the route's scan, and a divergence fails the
// request (oracle.go).

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

	turn := canaryTurn(&e.denseReqs)
	evs, counters := denseEvents(a, text, s.cfg.Procs, evs)
	s.metrics.ChargePRAM("match", counters.Work, counters.Depth)
	if turn {
		if err := s.walkCheck(e, a, text, evs, &s.metrics.denseVerifyPass, &s.metrics.denseVerifyFail); err != nil {
			return evs[:0], 1, engineDense, err
		}
	}
	s.metrics.denseServed.Add(1)
	return evs, 1, engineDense, nil
}

// denseMinShardLen is the smallest text shard worth a dedicated worker on
// the dense path. The automaton has no per-shard ramp-up beyond the halo
// bytes, but a goroutine + buffer still costs ~µs; 32 KiB keeps that noise
// under 5% of shard work.
const denseMinShardLen = 1 << 15

// denseEvents appends to dst the matches of the automaton over text, as
// events in position order. A text too short to shard is one cursor pass.
// A longer one is cut across workers, each running its own cursor over its
// shard plus a halo of maxPatternLen-1 bytes exactly like the tree-walk
// path (match.go): M[i] depends on at most that much lookahead, so every
// match starting inside a shard completes inside its halo, and the shards'
// events, concatenated in shard order, are the whole text's. Counters
// follow the parallel composition rule — Work is total bytes scanned
// (including halo re-scans), Depth the largest single-worker span.
func denseEvents(a *dense.Automaton, text []byte, procs int, dst []stream.MatchEvent) ([]stream.MatchEvent, pram.Counters) {
	n := len(text)
	shards := max(procs, 1)
	if maxShards := (n + denseMinShardLen - 1) / denseMinShardLen; shards > maxShards {
		shards = maxShards
	}
	if shards <= 1 {
		return cursorEvents(a, text, n, 0, dst), pram.Counters{Work: int64(n), Depth: int64(n)}
	}

	per := (n + shards - 1) / shards
	halo := a.MaxPatternLen() - 1
	work := int64(0)
	depth := int64(0)
	parts := make([]*[]stream.MatchEvent, shards)
	var wg sync.WaitGroup
	var panicked atomic.Pointer[pram.StepPanic]
	for w := 0; w < shards; w++ {
		start := w * per
		if start >= n {
			break
		}
		end := min(start+per, n)
		stop := min(end+halo, n)
		work += int64(stop - start)
		depth = max(depth, int64(stop-start))
		parts[w] = eventPool.get()
		wg.Add(1)
		go func(part *[]stream.MatchEvent, start, end, stop int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &pram.StepPanic{Value: r, Stack: debug.Stack()})
				}
			}()
			// Positions in the halo belong to the right neighbour.
			*part = cursorEvents(a, text[start:stop], end-start, int64(start), *part)
		}(parts[w], start, end, stop)
	}
	wg.Wait()
	for _, part := range parts {
		if part != nil {
			dst = append(dst, *part...)
			eventPool.put(part)
		}
	}
	if sp := panicked.Load(); sp != nil {
		panic(sp)
	}
	return dst, pram.Counters{Work: work, Depth: depth}
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

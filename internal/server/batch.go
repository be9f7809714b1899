package server

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/stream"
)

// Batched request execution. The paper's machine model pays a fixed cost per
// dispatch — machine setup, super-step barriers, the Las Vegas check round —
// that dominates when texts are small: a 512-byte match spends more wall
// time entering the PRAM than scanning. This layer coalesces concurrent
// small requests against the same resident dictionary into one dispatch over
// a separator-joined text (core/separator.go), demultiplexes the result by
// offset range, and answers each request from its own slice. The separator
// safety argument guarantees the joined output is byte-identical to solo
// runs, so batching is invisible to clients except in latency.
//
// Coalescing is a tree-walk optimisation only. A dense scan has no dispatch
// to share — no machine, no barrier, no checker, one table lookup per byte —
// so a match against an entry with a published automaton never waits for
// siblings, in any mode (serveMatch); B5 measured the joined dense dispatch
// at 0.67× of solo before it was deleted. Parse requests and matches on
// entries without an automaton (still compiling, table over budget,
// -dense=off) are what the coalescer serves.
//
// Admission mechanics (who waits, who executes, what a cancelled waiter
// does) live in internal/batch; this file owns eligibility, the join, the
// executors, and per-request demux containment: a panic (or injected
// chaos.BatchDemux fault) while slicing one request's answer fails only that
// request — its batch siblings complete normally.

// Batch serving modes (Config.BatchMode).
const (
	BatchOff  = "off"  // every request dispatches alone
	BatchOn   = "on"   // coalesce every tree-walk match and every parse
	BatchAuto = "auto" // the same, but only texts below the solo-shard threshold
)

// validBatchMode reports whether s names a batch serving mode.
func validBatchMode(s string) bool {
	return s == BatchOff || s == BatchOn || s == BatchAuto
}

// matchResult is one request's slice of a batched match dispatch.
type matchResult struct {
	events   []stream.MatchEvent
	attempts int
	engine   string
}

// parseResult is one request's slice of a batched parse dispatch.
type parseResult struct {
	refs []int32
}

// batchOptions builds the per-entry batcher options from the server config.
func (s *Server) batchOptions() batch.Options {
	return batch.Options{
		MaxRequests: s.cfg.BatchMaxRequests,
		MaxBytes:    s.cfg.BatchMaxBytes,
		MaxDelay:    s.cfg.BatchMaxDelay,
	}
}

// batchers lazily builds the entry's match and parse batchers. The executors
// capture the entry, so the batchers live exactly as long as it does;
// eviction needs no teardown.
func (s *Server) batchers(e *Entry) {
	e.batchInit.Do(func() {
		e.matchBatch = batch.New(s.batchOptions(), func(g *batch.Group[matchResult]) {
			s.execMatchBatch(e, g)
		})
		e.parseBatch = batch.New(s.batchOptions(), func(g *batch.Group[parseResult]) {
			s.execParseBatch(e, g)
		})
	})
}

// batchEligible reports whether a text of this size goes through the
// coalescer. Mode "auto" batches only texts too small for the solo
// halo-shard path — exactly the requests whose dispatch overhead dominates;
// a text that would shard solo gains nothing from sharing a machine.
func (s *Server) batchEligible(n int) bool {
	switch s.cfg.BatchMode {
	case BatchOn:
		return true
	case BatchAuto:
		return n < minShardLen
	default:
		return false
	}
}

// serveMatch answers one match request: through the solo path when the dense
// automaton will serve it (nothing to amortise) or the mode and text size
// rule coalescing out, through the per-entry coalescer otherwise. Either
// way the matches come back as events, written over buf's contents and
// into its storage.
func (s *Server) serveMatch(ctx context.Context, e *Entry, text []byte, buf []stream.MatchEvent) ([]stream.MatchEvent, int, string, error) {
	if s.servingAutomaton(e) != nil || !s.batchEligible(len(text)) {
		if s.cfg.BatchMode != BatchOff {
			s.metrics.batchSolo.Add(1)
		}
		return s.serveMatchSolo(ctx, e, text, buf)
	}
	s.batchers(e)
	// The coalescer can still be reading a text after a cancelled Do has
	// returned, while the HTTP route reuses its pooled text buffer as soon as
	// the handler does: the batch gets its own copy.
	res, err := e.matchBatch.Do(ctx, bytes.Clone(text))
	if err != nil {
		return buf[:0], 0, engineTree, err
	}
	return append(buf[:0], res.events...), res.attempts, res.engine, nil
}

// serveParse answers one parse request, batched when eligible. Empty texts
// keep the solo path (nothing to coalesce; preserves exact solo semantics).
func (s *Server) serveParse(ctx context.Context, e *Entry, text []byte) ([]int32, error) {
	if len(text) == 0 || !s.batchEligible(len(text)) {
		if s.cfg.BatchMode != BatchOff && len(text) > 0 {
			s.metrics.batchSolo.Add(1)
		}
		return e.Parse(ctx, text, s.cfg.Procs, s.metrics)
	}
	s.batchers(e)
	res, err := e.parseBatch.Do(ctx, text)
	return res.refs, err
}

// completeDemux completes r with the result of fn, containing a panic in fn
// — or an injected chaos.BatchDemux fault — to this request alone: the
// executor goroutine survives to demultiplex the remaining siblings.
func completeDemux[R any](r *batch.Request[R], fn func() (R, error)) {
	defer func() {
		if p := recover(); p != nil {
			var zero R
			r.Complete(zero, fmt.Errorf("batch: demux failed: %v", p))
		}
	}()
	if chaos.Fire(chaos.BatchDemux) {
		panic("chaos: injected demux fault")
	}
	r.Complete(fn())
}

// observeBatch records one dispatched batch and each live request's queue
// delay (admission → dispatch).
func (s *Server) observeBatch(g *batch.Group[matchResult], live []*batch.Request[matchResult]) {
	bytes := int64(0)
	for _, r := range live {
		bytes += int64(len(r.Text))
		s.metrics.observeBatchDelay(r.Admitted)
	}
	s.metrics.observeBatch(len(live), g.Dropped, bytes)
}

// execMatchBatch is the match batcher's executor: it dispatches the whole
// group through one machine run and demultiplexes per request.
func (s *Server) execMatchBatch(e *Entry, g *batch.Group[matchResult]) {
	live := g.Live()
	s.observeBatch(g, live)
	if len(live) == 1 {
		// A batch of one gains nothing from joining; serve it exactly like a
		// solo request (including dense verify sampling and ledger charges).
		r := live[0]
		evs, attempts, engine, err := s.serveMatchSolo(context.Background(), e, r.Text, nil)
		r.Complete(matchResult{events: evs, attempts: attempts, engine: engine}, err)
		return
	}
	// Only requests that found no automaton at admission get here; one that
	// was published since serves the next request, not this batch.
	if s.cfg.DenseMode != DenseOff {
		s.metrics.denseFallback.Add(int64(len(live)))
	}
	s.execMatchBatchTree(e, live)
}

// execMatchBatchTree joins the live texts over the core separator symbol and
// runs one Las Vegas loop (match + §3.4 check) over the joined buffer.
// Per-request answers are the events of disjoint subslices of the joined M[]
// array — the separator safety argument makes each identical to a solo run.
func (s *Server) execMatchBatchTree(e *Entry, live []*batch.Request[matchResult]) {
	texts := make([][]byte, len(live))
	for i, r := range live {
		texts[i] = r.Text
	}
	j := core.JoinTexts(texts)
	matches, attempts, err := e.MatchJoinedChecked(context.Background(), j, s.cfg.Procs, s.metrics)
	if err != nil {
		for _, r := range live {
			r.Complete(matchResult{}, err)
		}
		return
	}
	for k, r := range live {
		start, end := j.Bounds(k)
		completeDemux(r, func() (matchResult, error) {
			return matchResult{events: stream.AppendEvents(nil, matches[start:end], 0), attempts: attempts, engine: engineTree}, nil
		})
	}
}

// execParseBatch runs one §5 parse over the joined buffer. The separator
// argument is stronger here than for matching: the parse consumes only B[]
// (longest-prefix) values, which never cross a separator, so each slice's
// optimal phrase sequence is exactly its solo parse. Per-slice errors (a
// text the dictionary cannot express) fail only their own request.
func (s *Server) execParseBatch(e *Entry, g *batch.Group[parseResult]) {
	live := g.Live()
	bytes := int64(0)
	for _, r := range live {
		bytes += int64(len(r.Text))
		s.metrics.observeBatchDelay(r.Admitted)
	}
	s.metrics.observeBatch(len(live), g.Dropped, bytes)
	if len(live) == 1 {
		r := live[0]
		refs, err := e.Parse(context.Background(), r.Text, s.cfg.Procs, s.metrics)
		r.Complete(parseResult{refs: refs}, err)
		return
	}
	texts := make([][]byte, len(live))
	for i, r := range live {
		texts[i] = r.Text
	}
	j := core.JoinTexts(texts)
	m := pram.New(s.cfg.Procs)
	e.mu.RLock()
	allRefs, errs := e.dict.CompressStaticJoined(m, j)
	e.mu.RUnlock()
	s.metrics.ChargePRAM("parse", m.Work(), m.Depth())
	m.Close()
	for k, r := range live {
		refs, err := allRefs[k], errs[k]
		completeDemux(r, func() (parseResult, error) { return parseResult{refs: refs}, err })
	}
}

package server

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
)

// joinBuf recycles the dense join byte buffer across batches, so the steady
// state batched dense dispatch allocates only the per-batch output array.
type joinBuf struct{ bytes []byte }

var joinBufPool = sync.Pool{New: func() any { return new(joinBuf) }}

func getJoinBuf(n int) *joinBuf {
	b := joinBufPool.Get().(*joinBuf)
	if cap(b.bytes) < n {
		b.bytes = make([]byte, 0, n)
	}
	return b
}

func putJoinBuf(b *joinBuf) { joinBufPool.Put(b) }

// Batched request execution. The paper's machine model pays a fixed cost per
// dispatch — machine setup, super-step barriers, per-request halo plumbing —
// that dominates when texts are small: a 512-byte match spends more wall
// time entering the PRAM than scanning. This layer coalesces concurrent
// small requests against the same resident dictionary into one dispatch over
// a separator-joined text (core/separator.go for the tree path,
// dense.SeparatorByte for the compiled path), demultiplexes the result by
// offset range, and answers each request from its own slice. The separator
// safety argument guarantees the joined output is byte-identical to solo
// runs, so batching is invisible to clients except in latency.
//
// Admission mechanics (who waits, who executes, what a cancelled waiter
// does) live in internal/batch; this file owns eligibility, the join, the
// executors, and per-request demux containment: a panic (or injected
// chaos.BatchDemux fault) while slicing one request's answer fails only that
// request — its batch siblings complete normally.

// Batch serving modes (Config.BatchMode).
const (
	BatchOff  = "off"  // every request dispatches alone
	BatchOn   = "on"   // coalesce every match/parse request
	BatchAuto = "auto" // coalesce only texts below the solo-shard threshold
)

// validBatchMode reports whether s names a batch serving mode.
func validBatchMode(s string) bool {
	return s == BatchOff || s == BatchOn || s == BatchAuto
}

// matchResult is one request's slice of a batched match dispatch.
type matchResult struct {
	matches  []core.Match
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

// serveMatch answers one match request, through the per-entry coalescer when
// the mode and text size make it eligible, through the solo path otherwise.
func (s *Server) serveMatch(ctx context.Context, e *Entry, text []byte) ([]core.Match, int, string, error) {
	if !s.batchEligible(len(text)) {
		if s.cfg.BatchMode != BatchOff {
			s.metrics.batchSolo.Add(1)
		}
		return s.serveMatchSolo(ctx, e, text)
	}
	s.batchers(e)
	res, err := e.matchBatch.Do(ctx, text)
	if err != nil {
		return nil, 0, engineTree, err
	}
	return res.matches, res.attempts, res.engine, nil
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
		matches, attempts, engine, err := s.serveMatchSolo(context.Background(), e, r.Text)
		r.Complete(matchResult{matches: matches, attempts: attempts, engine: engine}, err)
		return
	}
	if a := e.denseAut.Load(); s.cfg.DenseMode != DenseOff && a != nil {
		s.execMatchBatchDense(e, a, live)
		return
	}
	if s.cfg.DenseMode != DenseOff {
		s.metrics.denseFallback.Add(int64(len(live)))
	}
	s.execMatchBatchTree(e, live)
}

// execMatchBatchTree joins the live texts over the core separator symbol and
// runs one Las Vegas loop (match + §3.4 check) over the joined buffer.
// Per-request answers are disjoint subslices of the joined M[] array — the
// separator safety argument makes each byte-identical to a solo run.
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
		res := matchResult{matches: matches[start:end], attempts: attempts, engine: engineTree}
		completeDemux(r, func() (matchResult, error) { return res, nil })
	}
}

// execMatchBatchDense scans the live texts joined over the automaton's
// separator byte (a byte absent from every pattern, whose transition row
// resets to the root) in one sharded pass. The join buffer is pooled; the
// scan itself allocates nothing beyond the per-batch output array, which the
// per-request slices alias. Sampled oracle verification runs per request on
// the same schedule as the solo path. A dictionary covering all 256 byte
// values has no separator; each request then runs the solo path alone.
func (s *Server) execMatchBatchDense(e *Entry, a *dense.Automaton, live []*batch.Request[matchResult]) {
	sep, ok := a.SeparatorByte()
	if !ok {
		for _, r := range live {
			matches, attempts, engine, err := s.serveMatchSolo(context.Background(), e, r.Text)
			r.Complete(matchResult{matches: matches, attempts: attempts, engine: engine}, err)
		}
		return
	}
	total := 0
	for _, r := range live {
		total += len(r.Text) + 1 // +1 for the trailing separator
	}
	buf := getJoinBuf(total)
	joined := buf.bytes[:0]
	for _, r := range live {
		joined = append(joined, r.Text...)
		joined = append(joined, sep)
	}
	// The output array is NOT pooled: per-request results alias it, and they
	// outlive this executor (the waiters read them after Complete).
	out := make([]core.Match, total)
	counters := denseMatchShardedInto(a, joined, out, s.cfg.Procs)
	s.metrics.ChargePRAM("match", counters.Work, counters.Depth)

	off := 0
	for _, r := range live {
		start, end := off, off+len(r.Text)
		off = end + 1
		res := matchResult{matches: out[start:end], attempts: 1, engine: engineDense}
		completeDemux(r, func() (matchResult, error) {
			if e.denseSampled() {
				if verified, served := s.denseVerify(e, r.Text, res.matches); !served {
					return matchResult{matches: verified, attempts: 1, engine: engineTree}, nil
				}
			}
			s.metrics.denseServed.Add(1)
			return res, nil
		})
	}
	buf.bytes = joined
	putJoinBuf(buf)
}

// denseVerify cross-checks one batched dense result against the tree-walk
// oracle. It reports (oracleResult, serveDense): serveDense is false exactly
// when the oracle disagrees, in which case its verified answer is served.
// Oracle-side trouble (degraded entry, exhausted fingerprints) cannot indict
// the deterministic dense result and leaves it served, matching the solo
// path's policy.
func (s *Server) denseVerify(e *Entry, text []byte, got []core.Match) ([]core.Match, bool) {
	want, _, _, err := e.MatchChecked(context.Background(), text, s.cfg.Procs, s.metrics)
	if err != nil {
		return nil, true
	}
	if sameMatchSets(e.patterns(), got, want) {
		s.metrics.denseVerifyPass.Add(1)
		return nil, true
	}
	s.metrics.denseVerifyFail.Add(1)
	e.logf("entry %s: batched dense result diverged from oracle on %d-byte text; serving oracle result", e.ID, len(text))
	return want, false
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

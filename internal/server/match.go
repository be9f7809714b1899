package server

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pram"
)

// minShardLen is the smallest text shard worth a dedicated worker: below
// ~32 KiB a goroutine, its buffers and the tree walk's per-shard Step 1
// ramp-up (O(log² d) windows) cost more than the parallelism buys.
const minShardLen = 1 << 15

// shardCount is how many shards of at least minShardLen, at most one per
// worker, n bytes are cut into. A text of one shard is scanned whole.
func shardCount(n, procs int) int {
	return min(max(procs, 1), (n+minShardLen-1)/minShardLen)
}

// shardScan runs scan concurrently on each of `shards` equal shards
// [start, end) of n bytes, with a halo up to stop: M[i] depends on at most
// maxPatternLen-1 bytes of lookahead, so with that halo every match starting
// in a shard completes inside its window (internal/distrib's cut, over one
// shared table). The first panic in a shard is re-raised, once all have
// finished, as a *pram.StepPanic the request middleware recovers. Work is
// the sum over the shards, Depth the maximum.
func shardScan(n, shards, halo int, scan func(w, start, end, stop int) pram.Counters) pram.Counters {
	per := (n + shards - 1) / shards
	counters := make([]pram.Counters, shards)
	var wg sync.WaitGroup
	var panicked atomic.Pointer[pram.StepPanic]
	for w := 0; w < shards && w*per < n; w++ {
		start := w * per
		end := min(start+per, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &pram.StepPanic{Value: r, Stack: debug.Stack()})
				}
			}()
			counters[w] = scan(w, start, end, min(end+max(halo, 0), n))
		}()
	}
	wg.Wait()
	if sp := panicked.Load(); sp != nil {
		panic(sp)
	}
	var total pram.Counters
	for _, c := range counters {
		total.Work += c.Work
		total.Depth = max(total.Depth, c.Depth)
	}
	return total
}

// matchSharded runs the §3 dictionary matching over text: whole on a
// machine of procs workers, or one sequential machine per shard
// (shardScan); the read path of core.Dictionary is pure.
func matchSharded(dict *core.Dictionary, text []byte, procs int) ([]core.Match, pram.Counters) {
	n := len(text)
	shards := shardCount(n, procs)
	if shards <= 1 {
		m := pram.New(max(procs, 1))
		defer m.Close()
		return dict.MatchText(m, text), m.Snapshot()
	}
	out := make([]core.Match, n)
	counters := shardScan(n, shards, dict.MaxPatternLen()-1, func(_, start, end, stop int) pram.Counters {
		m := pram.NewSequential()
		copy(out[start:end], dict.MatchText(m, text[start:stop])[:end-start])
		return m.Snapshot()
	})
	return out, counters
}

// matchAttempts bounds the Las Vegas loop. With 61-bit fingerprints even a
// second attempt is essentially unobservable; six failures mean something
// is wrong beyond bad luck.
const matchAttempts = 6

// MatchChecked runs the Las Vegas matching loop against the entry: sharded
// Monte Carlo matching, then the deterministic §3.4 checker over the full
// text (the checker must see the whole text — shard-local checks would miss
// inconsistencies straddling a boundary). On a fingerprint failure the
// dictionary is reseeded under the write lock and the attempt repeats.
// PRAM costs are charged to the "match", "check" and (for reseeds)
// "preprocess" ledgers of mt; mt may be nil. The returned counters are the
// total charged by this call (attempts compose sequentially) so callers —
// the streaming pipeline in particular — can aggregate a per-call ledger
// without scraping the shared metrics.
// The first call builds the entry's §3 stage (tree). A request against an
// entry whose circuit breaker is open (breaker.go) fails fast with a
// *DegradedError; an exhausted request returns a
// *FingerprintExhaustedError and feeds the breaker. Between failed attempts
// the loop backs off exponentially with jitter (failure path only — the
// fault-free request never sleeps and its ledger is untouched).
func (e *Entry) MatchChecked(ctx context.Context, text []byte, procs int, mt *Metrics) ([]core.Match, int, pram.Counters, error) {
	var total pram.Counters
	if e.Degraded() {
		return nil, 0, total, &DegradedError{ID: e.ID}
	}
	dict := e.tree(procs, mt)
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, attempt - 1, total, err
		}
		e.mu.RLock()
		matches, mc := matchSharded(dict, text, procs)
		cm := pram.New(procs)
		ok := dict.Check(cm, text, matches)
		cw, cd := cm.Work(), cm.Depth()
		cm.Close()
		e.mu.RUnlock()
		total.Work += mc.Work + cw
		total.Depth += mc.Depth + cd
		if mt != nil {
			mt.ChargePRAM("match", mc.Work, mc.Depth)
			mt.ChargePRAM("check", cw, cd)
		}
		if ok {
			e.noteSuccess()
			return matches, attempt, total, nil
		}
		if attempt == matchAttempts {
			e.noteExhaustion(mt)
			return nil, attempt, total, &FingerprintExhaustedError{ID: e.ID, Attempts: attempt}
		}
		e.reseed(uint64(attempt), mt)
		e.mu.RLock()
		seed := e.seed
		e.mu.RUnlock()
		reseedBackoff(ctx, attempt, seed)
	}
}

// reseed replaces the fingerprint randomness of the entry's built stage
// under the write lock. In-flight readers finish on the old tables first;
// the next attempt sees the new ones.
func (e *Entry) reseed(attempt uint64, mt *Metrics) {
	dict := e.tree(1, mt) // built: MatchChecked built it
	m := pram.NewSequential()
	e.mu.Lock()
	e.seed += attempt * 0x9e3779b97f4a7c15
	if e.seed == 0 {
		e.seed = 1
	}
	dict.Reseed(m, e.seed)
	e.mu.Unlock()
	if mt != nil {
		mt.ChargePRAM("preprocess", m.Work(), m.Depth())
	}
}

// Parse runs the §5 optimal static parse of text against the entry's §3
// dictionary (built on first use), charging the "parse" ledger.
func (e *Entry) Parse(ctx context.Context, text []byte, procs int, mt *Metrics) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dict := e.tree(procs, mt)
	m := pram.New(procs)
	defer m.Close()
	e.mu.RLock()
	refs, err := dict.CompressStatic(m, text)
	e.mu.RUnlock()
	if mt != nil {
		mt.ChargePRAM("parse", m.Work(), m.Depth())
	}
	return refs, err
}

// Expand reverses Parse, charging the "parse" ledger as well (it is the
// same §5 codec).
func (e *Entry) Expand(ctx context.Context, refs []int32, procs int, mt *Metrics) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dict := e.tree(procs, mt)
	m := pram.New(procs)
	defer m.Close()
	e.mu.RLock()
	text, err := dict.DecompressStatic(m, refs)
	e.mu.RUnlock()
	if mt != nil {
		mt.ChargePRAM("parse", m.Work(), m.Depth())
	}
	return text, err
}

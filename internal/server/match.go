package server

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pram"
)

// minShardLen is the smallest text shard worth a dedicated worker. Below
// ~32 KiB the per-shard window ramp-up (Step 1 windows are O(log² d) long)
// costs more than the parallelism buys.
const minShardLen = 1 << 15

// matchSharded runs dictionary matching over text against a resident
// dictionary, sharding large texts across a worker pool the same way
// internal/distrib shards across workstations: each shard carries a halo of
// maxPatternLen-1 bytes from its right neighbour, because M[i] depends on
// at most that much lookahead. Unlike distrib — where every workstation
// re-preprocesses the dictionary — all workers here share the single
// resident structure; the read path of core.Dictionary is pure.
//
// Returned counters follow the parallel composition rule: Work is the sum
// over shards, Depth the maximum (the shards run concurrently).
func matchSharded(dict *core.Dictionary, text []byte, procs int) ([]core.Match, pram.Counters) {
	n := len(text)
	if procs < 1 {
		procs = 1
	}
	shards := procs
	if maxShards := (n + minShardLen - 1) / minShardLen; shards > maxShards {
		shards = maxShards
	}
	if shards <= 1 {
		m := pram.New(procs)
		defer m.Close()
		out := dict.MatchText(m, text)
		return out, m.Snapshot()
	}

	maxPat := 0
	for _, p := range dict.Patterns {
		if len(p) > maxPat {
			maxPat = len(p)
		}
	}
	out := make([]core.Match, n)
	counters := make([]pram.Counters, shards)
	per := (n + shards - 1) / shards
	var wg sync.WaitGroup
	// A panic on a bare shard goroutine would kill the process — there is no
	// recover above it. Contain it like a pool super-step: park the first
	// panic, let the WaitGroup complete, re-raise on the caller as a typed
	// *pram.StepPanic where the request middleware's recover catches it.
	var panicked atomic.Pointer[pram.StepPanic]
	for w := 0; w < shards; w++ {
		start := w * per
		if start >= n {
			break
		}
		end := start + per
		if end > n {
			end = n
		}
		halo := end + maxPat - 1
		if halo > n {
			halo = n
		}
		wg.Add(1)
		go func(w, start, end, halo int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &pram.StepPanic{Value: r, Stack: debug.Stack()})
				}
			}()
			m := pram.NewSequential()
			local := dict.MatchText(m, text[start:halo])
			// Positions in the halo belong to the right neighbour.
			copy(out[start:end], local[:end-start])
			counters[w] = m.Snapshot()
		}(w, start, end, halo)
	}
	wg.Wait()
	if sp := panicked.Load(); sp != nil {
		panic(sp)
	}
	var total pram.Counters
	for _, c := range counters {
		total.Work += c.Work
		if c.Depth > total.Depth {
			total.Depth = c.Depth
		}
	}
	return out, total
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

// Package pram simulates an arbitrary CRCW PRAM on top of goroutines.
//
// The paper's algorithms are stated in the work/depth model of the
// concurrent-read concurrent-write PRAM with the "arbitrary" write-conflict
// rule. Real hardware offers neither synchronous processors nor unit-cost
// shared memory, so this package provides a faithful *cost simulator*:
//
//   - A Machine executes ParallelFor(n, body) as one PRAM super-step in
//     which n virtual processors each run body once. The bodies execute on a
//     persistent pool of physical worker goroutines that park between
//     super-steps (pool.go).
//   - The Machine counts Depth (number of super-steps, the PRAM "time") and
//     Work (total virtual-processor operations). These counters are the
//     quantities the paper's theorems bound, and they are what the
//     benchmark harness reports. They depend only on (n, cost) per call —
//     never on procs or grain — so every schedule produces the same ledger.
//   - Concurrent writes are expressed through Cells (see cells.go), whose
//     atomic operations realize the arbitrary / max / min / priority
//     conflict-resolution rules without data races.
//
// A Machine with Procs == 1 degenerates to a deterministic sequential
// executor, which tests use as the reference for the parallel schedules.
package pram

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Machine is a simulated CRCW PRAM instance. The zero value is not usable;
// construct one with New or NewSequential.
type Machine struct {
	procs int
	grain int   // explicit SetGrain override; 0 = adaptive
	pool  *pool // non-nil iff procs > 1

	depth atomic.Int64
	work  atomic.Int64

	// inStep guards against nested super-steps. A PRAM super-step is flat:
	// spawning a parallel loop from inside a virtual processor would make
	// the depth accounting meaningless, so it panics instead.
	inStep atomic.Bool

	phaseState
}

// Adaptive-grain parameters. With no SetGrain override the grain of a
// super-step is derived from its size: n/(procs*grainChunksPerProc) chunks
// of roughly equal size keep every worker busy with a few refills for load
// balance, the minGrain floor stops tiny rounds from shattering into
// per-element chunks, and maxChunkWork caps the units of *charged* work per
// chunk so high-cost bodies (ParallelForCost) still split finely enough to
// balance. Steps below minParallelWork charged units run inline on the
// caller: at that size the pool's wake-up latency exceeds the body work.
const (
	grainChunksPerProc = 4
	minGrain           = 64
	maxChunkWork       = 4096
	minParallelWork    = 4096
)

// New returns a pooled Machine backed by procs physical workers (the caller
// participates, so procs-1 goroutines are parked between super-steps).
// procs <= 0 selects runtime.GOMAXPROCS(0). Machines hold parked goroutines
// once used; Close releases them promptly, and a finalizer releases them on
// garbage collection otherwise.
func New(procs int) *Machine {
	procs = defaultProcs(procs)
	m := &Machine{procs: procs}
	if procs > 1 {
		// procs is a cost-model parameter; the physical helper count is
		// capped at GOMAXPROCS-1 because more OS-schedulable runners than
		// cores buys no throughput and costs a context switch per wake. An
		// over-subscribed machine (procs=8 on one core, say) degrades to
		// caller-only chunked execution with zero parked goroutines.
		helpers := procs - 1
		if mx := runtime.GOMAXPROCS(0) - 1; helpers > mx {
			helpers = mx
		}
		if helpers < 0 {
			helpers = 0
		}
		m.pool = newPool(helpers)
		// Workers reference only the pool, never the Machine, so an
		// abandoned Machine is collectable; the finalizer then unparks and
		// retires its workers.
		runtime.SetFinalizer(m, func(m *Machine) { m.pool.shutdown() })
	}
	return m
}

// NewSequential returns a Machine that executes every super-step on the
// calling goroutine in index order. Counters behave identically to the
// parallel machine; only the schedule is serial.
func NewSequential() *Machine { return &Machine{procs: 1} }

// Close releases the machine's parked workers. It is idempotent — double
// and concurrent Close are safe — and safe on sequential machines, but must
// not race with an in-flight ParallelFor. A ParallelFor issued *after*
// Close does not hang: the pool detects the retired workers and degrades to
// caller-only inline execution (counters unaffected). Omitting Close is not
// a leak — the finalizer reclaims the workers at the next collection — but
// long-lived processes that churn through Machines (one per request, say)
// should Close to keep the parked goroutine count flat.
func (m *Machine) Close() {
	if m.pool != nil {
		m.pool.shutdown()
		runtime.SetFinalizer(m, nil)
	}
}

// Procs reports the number of physical workers.
func (m *Machine) Procs() int { return m.procs }

// Epochs reports how many super-steps were dispatched through the worker
// pool (i.e. actually ran chunked). Inline steps don't count. For tests and
// benchmarks.
func (m *Machine) Epochs() int64 {
	if m.pool == nil {
		return 0
	}
	return m.pool.epoch.Load()
}

// SetGrain overrides the work-chunking granularity with a fixed value.
// Intended for tests and benchmarks; pass g <= 0 to restore the adaptive
// default. Grain affects wall-clock time only, never the Work/Depth
// counters.
func (m *Machine) SetGrain(g int) {
	if g <= 0 {
		g = 0
	}
	m.grain = g
}

// grainFor derives the chunk size for a super-step of n bodies of the given
// cost. See the adaptive-grain constants for the rationale.
func (m *Machine) grainFor(n int, cost int64) int {
	if m.grain > 0 {
		return m.grain
	}
	g := n / (m.procs * grainChunksPerProc)
	if g < minGrain {
		g = minGrain
	}
	if c := int(maxChunkWork / cost); g > c {
		// Expensive bodies split below the element floor — a single
		// cost-10^6 body per chunk is already plenty of work.
		g = c
		if g < 1 {
			g = 1
		}
	}
	return g
}

// Depth returns the number of PRAM super-steps executed so far.
func (m *Machine) Depth() int64 { return m.depth.Load() }

// Work returns the total number of virtual-processor operations charged so
// far.
func (m *Machine) Work() int64 { return m.work.Load() }

// ResetCounters zeroes the Work and Depth counters (e.g. to separate a
// preprocessing phase from a query phase in an experiment).
func (m *Machine) ResetCounters() {
	m.depth.Store(0)
	m.work.Store(0)
}

// Counters returns (work, depth) as a single snapshot.
func (m *Machine) Counters() (work, depth int64) {
	return m.work.Load(), m.depth.Load()
}

// Account charges extra work and depth without running anything. Algorithms
// use it for sequential-within-window phases whose cost must still appear in
// the PRAM ledger (e.g. the L sequential ExtendLeft steps inside a window in
// the paper's Step 1B).
func (m *Machine) Account(work, depth int64) {
	if work > 0 {
		m.work.Add(work)
	}
	if depth > 0 {
		m.depth.Add(depth)
	}
}

// ParallelFor runs body(i) for every i in [0, n) as a single PRAM
// super-step: Depth increases by 1 and Work by n. The body must be safe to
// run concurrently with itself; writes to shared data must go through Cells
// (or be provably per-index disjoint). The call returns after all n virtual
// processors finish, i.e. there is an implicit barrier, exactly as on a
// synchronous PRAM.
//
// Panic semantics: a body panic never escapes on a worker goroutine (which
// would kill the process with no chance to recover). When the step ran
// chunked on the pool, the first body panic is re-raised on the *calling*
// goroutine wrapped in a *StepPanic; when the step ran inline on the
// caller, the panic propagates unwrapped. Either way a recover around
// the ParallelFor call (e.g. a server's per-request recover) contains it.
func (m *Machine) ParallelFor(n int, body func(i int)) {
	m.ParallelForCost(n, 1, body)
}

// ParallelForCost is ParallelFor where each virtual processor performs cost
// unit operations: Depth increases by cost and Work by n*cost. Use it when a
// body performs a non-constant but uniform amount of local work (for
// example, a length-L sequential scan per window).
func (m *Machine) ParallelForCost(n int, cost int64, body func(i int)) {
	if n < 0 {
		panic(fmt.Sprintf("pram: ParallelFor with negative n=%d", n))
	}
	if cost < 1 {
		panic(fmt.Sprintf("pram: ParallelForCost with cost=%d < 1", cost))
	}
	if n == 0 {
		return
	}
	if m.inStep.Swap(true) {
		panic("pram: nested ParallelFor inside a super-step body")
	}
	defer m.inStep.Store(false)

	m.depth.Add(cost)
	m.work.Add(int64(n) * cost)

	grain := 0
	if m.procs > 1 {
		grain = m.grainFor(n, cost)
	}
	if m.procs == 1 || n <= grain ||
		(m.grain == 0 && int64(n)*cost < minParallelWork) {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}

	m.pool.run(n, grain, body)
}

// Do runs the given branches concurrently as one super-step of depth 1 and
// work len(branches). It models a constant number of processors doing
// different O(1)-dispatch jobs (each branch may itself be charged separately
// via Account by the caller if it is not O(1)).
func (m *Machine) Do(branches ...func()) {
	m.ParallelFor(len(branches), func(i int) { branches[i]() })
}

// Sequential reports whether this machine runs super-steps serially.
func (m *Machine) Sequential() bool { return m.procs == 1 }

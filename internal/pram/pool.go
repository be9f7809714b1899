package pram

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/chaos"
)

// pool is the persistent execution substrate behind a parallel Machine.
// Workers are spawned once (lazily, on the first chunked super-step) and
// then park on their private job channel between epochs; publishing a
// super-step is a handful of channel sends instead of procs-1 goroutine
// spawns plus a WaitGroup allocation.
//
// The epoch protocol:
//
//  1. The publisher (the goroutine inside ParallelFor; there is exactly one
//     at a time, enforced by Machine.inStep) builds a step, bumps the epoch
//     counter, and sends the step to the k workers it wants awake.
//  2. Released workers claim [lo, hi) chunks from the step's atomic cursor
//     until it is exhausted, then decrement the step's pending count and
//     park again. The last worker out closes step.done.
//  3. The publisher claims chunks itself (the caller is always one of the
//     runners, so a pool machine with procs == p uses at most p-1 workers,
//     further capped at GOMAXPROCS-1 — see New), then blocks on
//     step.done — the implicit barrier of a synchronous PRAM super-step.
//     With zero workers the caller runs every chunk and the barrier is
//     trivially satisfied.
//
// Fault containment: a panic inside a body running on a worker goroutine
// would, if left alone, kill the whole process — no recover higher up the
// worker's stack exists. Instead every runner (workers and the publisher)
// executes the step under a recover that parks the first panic on the step;
// the remaining runners drain quickly (the claim loop aborts once a panic
// is recorded), the barrier completes normally, and the publisher re-raises
// the panic on the *calling* goroutine as a typed *StepPanic. A server
// wrapping requests in its own recover therefore loses one request, never
// the process.
//
// The pool is deliberately ignorant of Work/Depth accounting: scheduling
// lives here, the cost model lives in Machine, and nothing in this file can
// change a counter.
type pool struct {
	workers []chan *step // one parking channel per worker, buffered 1
	started bool         // workers spawned (publisher-side state)
	epoch   atomic.Int64 // super-steps dispatched through the pool
	closed  atomic.Bool
	quit    chan struct{}
}

// StepPanic is the panic value re-raised on the publishing goroutine when a
// super-step body panicked on any runner. Value is the original panic value
// and Stack the stack of the runner that panicked (captured at recover
// time, so it points into the body, not into the re-raise site).
type StepPanic struct {
	Value any
	Stack []byte
}

func (p *StepPanic) Error() string {
	return fmt.Sprintf("pram: super-step body panicked: %v", p.Value)
}

// Unwrap exposes a body panic value that was itself an error, so
// errors.Is/As see through the containment wrapper.
func (p *StepPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// step is one published super-step. It lives for a single epoch; the
// cursor/pending pair is the completion barrier.
type step struct {
	n        int
	grain    int
	body     func(i int)
	cursor   atomic.Int64 // next unclaimed index
	pending  atomic.Int32 // workers that have not finished this epoch
	panicked atomic.Pointer[StepPanic]
	done     chan struct{}
}

func newPool(workers int) *pool {
	p := &pool{quit: make(chan struct{})}
	p.workers = make([]chan *step, workers)
	for i := range p.workers {
		p.workers[i] = make(chan *step, 1)
	}
	return p
}

// run executes body over [0, n) in chunks of grain using up to len(workers)
// helpers plus the calling goroutine. Only called with n > grain.
func (p *pool) run(n, grain int, body func(i int)) {
	p.epoch.Add(1)
	if p.closed.Load() {
		// Use-after-Close: the workers are gone, so dispatching a step
		// would block on a barrier nobody completes. Degrade to caller-only
		// inline execution — slower, never wrong, and Close stays safe to
		// call at any point after the last *concurrent* ParallelFor.
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if len(p.workers) == 0 {
		// Over-subscribed machine on a small host (helpers capped to zero):
		// the caller is the only runner, so skip the step machinery — no
		// allocation, no cursor traffic.
		chaos.Sleep(chaos.PoolDelay)
		if chaos.Fire(chaos.PoolPanic) {
			panic(&chaos.InjectedError{Point: chaos.PoolPanic, Op: "super-step"})
		}
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if !p.started {
		p.started = true
		for _, ch := range p.workers {
			go worker(ch, p.quit)
		}
	}
	// Wake only as many workers as there are chunks beyond the caller's own.
	k := len(p.workers)
	if chunks := (n + grain - 1) / grain; chunks-1 < k {
		k = chunks - 1
	}
	s := &step{n: n, grain: grain, body: body, done: make(chan struct{})}
	s.pending.Store(int32(k))
	for i := 0; i < k; i++ {
		p.workers[i] <- s
	}
	s.runProtected() // the caller is runner zero
	if k > 0 {
		<-s.done
	}
	if sp := s.panicked.Load(); sp != nil {
		// Re-raise on the publishing goroutine, where the Machine's caller
		// (and any request-scoped recover above it) can handle it.
		panic(sp)
	}
}

// runProtected executes the runner's share of the step with panic
// containment: the first panic is parked on the step and the runner retires
// normally, keeping the completion barrier intact.
func (s *step) runProtected() {
	defer func() {
		if r := recover(); r != nil {
			s.panicked.CompareAndSwap(nil, &StepPanic{Value: r, Stack: debug.Stack()})
		}
	}()
	chaos.Sleep(chaos.PoolDelay)
	if chaos.Fire(chaos.PoolPanic) {
		panic(&chaos.InjectedError{Point: chaos.PoolPanic, Op: "super-step"})
	}
	s.work()
}

// work claims chunks until the cursor runs past n or a sibling runner
// panicked (no point finishing a step that is already failed).
func (s *step) work() {
	g := int64(s.grain)
	for {
		if s.panicked.Load() != nil {
			return
		}
		lo := s.cursor.Add(g) - g
		if lo >= int64(s.n) {
			return
		}
		hi := int(lo) + s.grain
		if hi > s.n {
			hi = s.n
		}
		for i := int(lo); i < hi; i++ {
			s.body(i)
		}
	}
}

// worker parks on its job channel between epochs. It holds no reference to
// the Machine, so an abandoned Machine can be finalized (which closes quit)
// even though its workers are still parked. runProtected never lets a body
// panic escape, so the pending decrement below always runs and the barrier
// cannot deadlock.
func worker(jobs <-chan *step, quit <-chan struct{}) {
	for {
		select {
		case <-quit:
			return
		case s := <-jobs:
			s.runProtected()
			if s.pending.Add(-1) == 0 {
				close(s.done)
			}
		}
	}
}

// shutdown releases the workers. Idempotent; must not race with run, which
// Machine guarantees (Close documents it, and the finalizer only fires once
// the Machine — and therefore any in-flight ParallelFor — is unreachable).
// Steps dispatched *after* shutdown degrade to inline execution (see run).
func (p *pool) shutdown() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
	}
}

// defaultProcs resolves the procs argument of New.
func defaultProcs(procs int) int {
	if procs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return procs
}

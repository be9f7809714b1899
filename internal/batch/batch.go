// Package batch is an admission-side request coalescer: it groups
// concurrent small requests against one resource (here: one resident
// dictionary) into a single unit of work, so the per-dispatch costs —
// machine setup, super-step barriers, per-request halo plumbing — are paid
// once per batch instead of once per request.
//
// The paper's regime is preprocess-once/match-many with one large text per
// machine invocation (§3); production traffic is many small texts. The
// batcher restores the paper's regime by turning the traffic back into few,
// large dispatches. How the work is actually joined and split is the
// caller's business (internal/server joins texts with the core separator
// symbol and demultiplexes results by offset range); this package only owns
// the admission mechanics:
//
//   - a batch dispatches when it reaches MaxRequests pending requests, or
//     MaxBytes of coalesced payload, or MaxDelay after its first admission
//     (a time.AfterFunc timer armed by the first request), whichever first;
//   - size- and byte-triggered flushes run on the admitting goroutine (the
//     request that filled the batch executes it — no handoff latency);
//     delay-triggered flushes run on the timer goroutine;
//   - a waiter whose context expires abandons its request: the request is
//     marked dropped, the waiter returns ctx.Err() immediately (so the
//     server can answer 503 + Retry-After on its own deadline), and the
//     batch executes without it — a cancelled request never poisons its
//     siblings;
//   - a panic anywhere in the executor is contained: every request not yet
//     completed is failed with a *PanicError and the batcher stays usable.
//
// The type is generic in the per-request result R so match and parse
// batching share one implementation.
package batch

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxRequests = 32
	DefaultMaxBytes    = 1 << 20
	DefaultMaxDelay    = 500 * time.Microsecond
)

// Options bound one batch. Zero fields take the defaults above.
type Options struct {
	MaxRequests int           // dispatch at this many pending requests
	MaxBytes    int           // dispatch at this much coalesced payload
	MaxDelay    time.Duration // dispatch this long after the first admission
}

func (o Options) withDefaults() Options {
	if o.MaxRequests <= 0 {
		o.MaxRequests = DefaultMaxRequests
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = DefaultMaxDelay
	}
	return o
}

// Request is one admitted request. The executor reads Text and Admitted,
// must skip requests whose Dropped reports true, and completes the rest
// with Complete. Complete may be called at most once per request, and only
// from the executor's goroutine.
//
// Requests are allocated from a per-batch slab and share one completion
// channel, so admission costs zero allocations per request (one slab plus
// one channel per batch) — on the coalesced path these were the last
// per-request heap objects left.
type Request[R any] struct {
	Text     []byte
	Admitted time.Time // when Do admitted the request (for delay accounting)

	res       R
	err       error
	done      chan struct{} // the group's channel; closed after the executor returns
	completed bool
	dropped   atomic.Bool
}

// Dropped reports whether the waiter abandoned this request (its context
// expired while queued). The executor must not spend work on it.
func (r *Request[R]) Dropped() bool { return r.dropped.Load() }

// Complete records the request's result (or error). Its waiter wakes when
// the whole group has executed — the batcher closes the group's shared
// completion channel after the executor returns, one wake point instead of
// one channel close per request.
func (r *Request[R]) Complete(res R, err error) {
	if r.completed {
		return
	}
	r.res, r.err = res, err
	r.completed = true
}

// Group is one dispatched batch: the admitted requests (dropped ones
// included, so the executor sees true occupancy) plus how many requests
// were already dropped when the batch was taken.
type Group[R any] struct {
	Reqs    []*Request[R]
	Dropped int

	done chan struct{} // shared by every request; closed by run
}

// Live returns the requests the executor must serve (not dropped).
func (g *Group[R]) Live() []*Request[R] {
	live := g.Reqs[:0:0]
	for _, r := range g.Reqs {
		if !r.Dropped() {
			live = append(live, r)
		}
	}
	return live
}

// PanicError is how an executor panic reaches the waiters of a batch: every
// request not completed when the panic unwound is failed with one. The
// server maps it to a 500, exactly like a panic on the solo path.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("batch: executor panicked: %v", e.Value)
}

// Batcher coalesces Do calls into Groups and hands them to exec. Safe for
// concurrent use; one Batcher per (resource, operation) pair.
type Batcher[R any] struct {
	opts Options
	exec func(*Group[R])

	mu      sync.Mutex
	pending []*Request[R]
	bytes   int
	slab    []Request[R]  // bump allocator: admissions carve requests off here
	done    chan struct{} // pending batch's completion channel (nil iff no pending)
	gen     uint64        // bumped on every take; invalidates stale timers
	timer   *time.Timer
}

// New returns a batcher dispatching to exec under opts. exec runs on
// whichever goroutine triggered the flush and must complete every live
// request of its group.
func New[R any](opts Options, exec func(*Group[R])) *Batcher[R] {
	return &Batcher[R]{opts: opts.withDefaults(), exec: exec}
}

// Do admits text, waits for the batch executor to complete it, and returns
// the result. If ctx expires first — while queued or while the batch is
// executing — Do returns ctx.Err() immediately and the request's slice of
// the batch output is discarded.
func (b *Batcher[R]) Do(ctx context.Context, text []byte) (R, error) {
	var zero R
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	admitted := time.Now()
	b.mu.Lock()
	// Carve the request off the current slab (entries are used once, so the
	// zero fields need no reset) and join the pending batch's shared
	// completion channel — admission allocates nothing per request.
	if len(b.slab) == 0 {
		b.slab = make([]Request[R], b.opts.MaxRequests)
	}
	r := &b.slab[0]
	b.slab = b.slab[1:]
	if b.done == nil {
		b.done = make(chan struct{})
	}
	r.Text, r.Admitted, r.done = text, admitted, b.done
	b.pending = append(b.pending, r)
	b.bytes += len(text)
	var g *Group[R]
	if len(b.pending) >= b.opts.MaxRequests || b.bytes >= b.opts.MaxBytes {
		g = b.takeLocked()
	} else if len(b.pending) == 1 {
		gen := b.gen
		b.timer = time.AfterFunc(b.opts.MaxDelay, func() { b.flushTimer(gen) })
	}
	b.mu.Unlock()
	if g != nil {
		b.run(g)
	}
	if ctx.Done() == nil {
		// Uncancellable context: skip the select machinery.
		<-r.done
		return r.res, r.err
	}
	select {
	case <-r.done:
		return r.res, r.err
	case <-ctx.Done():
		r.dropped.Store(true)
		return zero, ctx.Err()
	}
}

// takeLocked removes the pending batch (caller holds b.mu), invalidating
// any armed delay timer. Returns nil when nothing is pending or every
// pending request was already dropped.
func (b *Batcher[R]) takeLocked() *Group[R] {
	if len(b.pending) == 0 {
		return nil
	}
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	g := &Group[R]{Reqs: b.pending, done: b.done}
	b.pending = nil
	b.bytes = 0
	b.done = nil
	live := 0
	for _, r := range g.Reqs {
		if !r.Dropped() {
			live++
		}
	}
	g.Dropped = len(g.Reqs) - live
	if live == 0 {
		return nil
	}
	return g
}

// flushTimer is the MaxDelay path: dispatch whatever is pending, unless a
// size-triggered flush got there first (generation mismatch).
func (b *Batcher[R]) flushTimer(gen uint64) {
	chaos.Sleep(chaos.BatchStall)
	b.mu.Lock()
	if b.gen != gen {
		b.mu.Unlock()
		return
	}
	g := b.takeLocked()
	b.mu.Unlock()
	if g != nil {
		b.run(g)
	}
}

// run executes one group with panic containment. The timer goroutine has no
// HTTP middleware recover above it, so an executor panic escaping here
// would kill the process; instead it fails the group's incomplete requests
// and is swallowed.
func (b *Batcher[R]) run(g *Group[R]) {
	defer close(g.done) // wakes every waiter; runs after the recover below
	defer func() {
		if p := recover(); p != nil {
			err := &PanicError{Value: p, Stack: debug.Stack()}
			b.failIncomplete(g, err)
		} else {
			b.failIncomplete(g, fmt.Errorf("batch: executor left request incomplete"))
		}
	}()
	b.exec(g)
}

// failIncomplete completes every not-yet-completed request with err.
func (b *Batcher[R]) failIncomplete(g *Group[R], err error) {
	var zero R
	for _, r := range g.Reqs {
		if !r.completed {
			r.Complete(zero, err)
		}
	}
}

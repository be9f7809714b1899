package pram

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestPooledCoversEveryIndexOnceAdaptiveGrain(t *testing.T) {
	for _, procs := range []int{2, 3, 8} {
		for _, n := range []int{1, 63, 4096, 100_000} {
			m := New(procs)
			hits := make([]int32, n)
			m.ParallelFor(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("procs=%d n=%d index %d executed %d times", procs, n, i, h)
				}
			}
			m.Close()
		}
	}
}

func TestPoolReusedAcrossSuperSteps(t *testing.T) {
	m := New(4)
	defer m.Close()
	m.SetGrain(64)
	const n, rounds = 1 << 14, 20
	var total atomic.Int64
	for r := 0; r < rounds; r++ {
		m.ParallelFor(n, func(i int) { total.Add(1) })
	}
	if got := total.Load(); got != n*rounds {
		t.Fatalf("ran %d bodies, want %d", got, n*rounds)
	}
	if e := m.Epochs(); e != rounds {
		t.Fatalf("pool dispatched %d epochs, want %d", e, rounds)
	}
}

func TestSmallStepsRunInlineUnderAdaptiveGrain(t *testing.T) {
	m := New(8)
	defer m.Close()
	m.ParallelFor(100, func(int) {}) // 100 work units < minParallelWork
	if e := m.Epochs(); e != 0 {
		t.Fatalf("tiny step went through the pool (%d epochs)", e)
	}
	m.ParallelForCost(100, 1000, func(int) {}) // 100k units: must parallelize
	if e := m.Epochs(); e != 1 {
		t.Fatalf("costly step did not go through the pool (%d epochs)", e)
	}
}

func TestCloseStopsWorkersAndIsIdempotent(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(8)
	m.SetGrain(1)
	m.ParallelFor(1024, func(int) {}) // force worker spawn
	m.Close()
	m.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("workers still alive after Close: %d goroutines, started with %d", g, before)
	}
}

// TestPoolProtocolDirect drives the publisher/worker protocol with real
// parked workers regardless of GOMAXPROCS (Machine caps helpers at
// GOMAXPROCS-1, which would leave the channel handoff unexercised on a
// single-core host — and unwatched by the race detector).
func TestPoolProtocolDirect(t *testing.T) {
	p := newPool(3)
	defer p.shutdown()
	const n = 1 << 14
	for round := 0; round < 50; round++ {
		hits := make([]int32, n)
		p.run(n, 64, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: index %d executed %d times", round, i, h)
			}
		}
	}
	if e := p.epoch.Load(); e != 50 {
		t.Fatalf("epochs = %d, want 50", e)
	}
	// Fewer chunks than workers: only chunks-1 helpers may be woken.
	hits := make([]int32, 100)
	p.run(100, 64, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("small step: index %d executed %d times", i, h)
		}
	}
	p.shutdown()
	p.shutdown() // idempotent
}

func TestCloseSequentialIsNoop(t *testing.T) {
	m := NewSequential()
	m.Close()
	m.ParallelFor(10, func(int) {}) // still usable: no pool involved
}

// TestSequentialMatchesPooled pins the ledger contract: the pooled schedule
// and the sequential reference report identical work/depth and outputs.
func TestSequentialMatchesPooled(t *testing.T) {
	const n = 1 << 15
	run := func(m *Machine) ([]int64, int64, int64) {
		defer m.Close()
		m.SetGrain(7)
		out := make([]int64, n)
		m.ParallelFor(n, func(i int) { out[i] = int64(i) * 3 })
		m.ParallelForCost(n/2, 5, func(i int) { out[i] += 1 })
		w, d := m.Counters()
		return out, w, d
	}
	a, wa, da := run(New(4))
	b, wb, db := run(NewSequential())
	if wa != wb || da != db {
		t.Fatalf("schedules disagree on ledger: pooled (%d,%d) sequential (%d,%d)", wa, da, wb, db)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules disagree at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestAdaptiveGrainBounds(t *testing.T) {
	m := New(4)
	defer m.Close()
	cases := []struct {
		n     int
		cost  int64
		check func(g int) bool
	}{
		{100, 1, func(g int) bool { return g == minGrain }},
		{1 << 20, 1, func(g int) bool { return g == maxChunkWork }}, // unit cost: chunk = work cap
		{1 << 20, 1 << 30, func(g int) bool { return g == 1 }},      // cost cap floor
		{1 << 14, 64, func(g int) bool { return g == maxChunkWork/64 }},
	}
	for _, c := range cases {
		if g := m.grainFor(c.n, c.cost); !c.check(g) {
			t.Errorf("grainFor(%d, %d) = %d", c.n, c.cost, g)
		}
	}
	m.SetGrain(7)
	if g := m.grainFor(1<<20, 1); g != 7 {
		t.Errorf("explicit grain not honored: got %d", g)
	}
	m.SetGrain(0)
	if g := m.grainFor(1<<20, 1); g == 7 {
		t.Error("SetGrain(0) did not restore adaptive mode")
	}
}

func TestPackPriorityPanicsOutOfRange(t *testing.T) {
	cases := []struct {
		name          string
		prio, payload int64
	}{
		{"prio negative", -1, 0},
		{"prio too wide", 1 << 31, 0},
		{"payload negative", 0, -1},
		{"payload too wide", 0, 1 << 31},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("PackPriority(%d, %d) did not panic", c.prio, c.payload)
				}
			}()
			PackPriority(c.prio, c.payload)
		})
	}
	// Boundary values must still round-trip.
	p, q := UnpackPriority(PackPriority(priorityMask, priorityMask))
	if p != priorityMask || q != priorityMask {
		t.Fatalf("boundary round-trip = (%d,%d)", p, q)
	}
}

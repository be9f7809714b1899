package pram

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// catchPanic runs f and returns the recovered panic value (nil if none).
func catchPanic(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestWorkerPanicContained is the core containment guarantee: a body panic
// on a chunked super-step — which executes on pool worker goroutines, where
// an uncontained panic kills the whole process — must surface as a
// *StepPanic on the calling goroutine, with the machine still usable
// afterwards.
func TestWorkerPanicContained(t *testing.T) {
	// On a 1-core host the pooled machine has zero helpers and runs steps
	// inline (raw panic propagation, covered by TestInlinePanicPropagates).
	// Force real workers so the goroutine-crossing path is exercised
	// everywhere, including GOMAXPROCS=1 CI.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	m := New(4)
	defer m.Close()
	m.SetGrain(1) // force chunked dispatch even for small n
	boom := errors.New("boom at i=7")
	v := catchPanic(func() {
		m.ParallelFor(64, func(i int) {
			if i == 7 {
				panic(boom)
			}
		})
	})
	sp, ok := v.(*StepPanic)
	if !ok {
		t.Fatalf("panic value %T %v, want *StepPanic", v, v)
	}
	if sp.Value != boom {
		t.Errorf("wrapped value = %v, want %v", sp.Value, boom)
	}
	if len(sp.Stack) == 0 {
		t.Error("no runner stack captured")
	}
	if !errors.Is(sp, boom) {
		t.Error("errors.Is through StepPanic failed")
	}
	// The failed step still charged the ledger (the step was dispatched)
	// and the machine still works.
	var mu sync.Mutex
	sum := 0
	m.ParallelFor(100, func(i int) {
		mu.Lock()
		sum += i
		mu.Unlock()
	})
	if sum != 4950 {
		t.Errorf("machine broken after contained panic: sum=%d", sum)
	}
}

// TestInlinePanicPropagates: steps that run inline on the caller (tiny n,
// or a sequential machine) propagate body panics unwrapped — no goroutine
// boundary is crossed, so no containment is needed and the raw value is
// more useful to debuggers.
func TestInlinePanicPropagates(t *testing.T) {
	m := NewSequential()
	boom := errors.New("inline boom")
	v := catchPanic(func() {
		m.ParallelFor(4, func(i int) { panic(boom) })
	})
	if v != boom {
		t.Fatalf("inline panic value = %v, want the raw value", v)
	}
	// inStep must have been reset by the deferred store.
	m.ParallelFor(4, func(int) {})
}

func TestCloseIdempotent(t *testing.T) {
	m := New(4)
	m.ParallelFor(100000, func(int) {}) // spin up the pool
	m.Close()
	m.Close() // double close must not panic or deadlock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); m.Close() }()
	}
	wg.Wait()

	// Sequential machines: Close is trivially safe.
	s := NewSequential()
	s.Close()
	s.Close()
}

// TestUseAfterCloseDegradesInline: dispatching a super-step on a closed
// machine must not hang on a barrier nobody completes; it degrades to
// caller-only execution with identical results and ledger.
func TestUseAfterCloseDegradesInline(t *testing.T) {
	m := New(4)
	m.ParallelFor(100000, func(int) {})
	m.Close()
	n := 1 << 17
	out := make([]int, n)
	m.ParallelFor(n, func(i int) { out[i] = i })
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d after Close", i, v)
		}
	}
	if m.Work() != int64(100000+n) || m.Depth() != 2 {
		t.Errorf("ledger after close = (%d, %d), want (%d, 2)", m.Work(), m.Depth(), 100000+n)
	}
}

// TestPanicLedgerUnchanged: containment must not alter Work/Depth
// accounting — the step is charged when dispatched, panic or not.
func TestPanicLedgerUnchanged(t *testing.T) {
	m := New(4)
	defer m.Close()
	m.SetGrain(8)
	_ = catchPanic(func() {
		m.ParallelFor(1000, func(i int) {
			if i == 0 {
				panic("x")
			}
		})
	})
	if m.Work() != 1000 || m.Depth() != 1 {
		t.Errorf("ledger = (%d, %d), want (1000, 1)", m.Work(), m.Depth())
	}
}

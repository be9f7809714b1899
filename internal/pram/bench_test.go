package pram

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// benchBody is a small but non-trivial body: enough arithmetic that the
// compiler cannot elide it, little enough that scheduling overhead shows.
func benchBody(dst []int64) func(i int) {
	return func(i int) { dst[i] = int64(i)*2654435761 + 17 }
}

// schedules are the two ways to run a super-step: the worker pool and the
// sequential reference it is measured against.
var schedules = []struct {
	name string
	new  func() *Machine
}{
	{"pooled", func() *Machine { return New(0) }},
	{"sequential", NewSequential},
}

// BenchmarkSuperStep measures the cost of one ParallelFor super-step for
// the pooled and sequential schedules across step sizes: what the pool's
// dispatch and barrier cost (or buy) over the plain loop.
func BenchmarkSuperStep(b *testing.B) {
	for _, sched := range schedules {
		for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
			b.Run(fmt.Sprintf("schedule=%s/n=%d", sched.name, n), func(b *testing.B) {
				m := sched.new()
				defer m.Close()
				dst := make([]int64, n)
				body := benchBody(dst)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.ParallelFor(n, body)
				}
			})
		}
	}
}

// BenchmarkManySmallSteps is the many-super-step regime that dominates the
// round loops of list ranking and tree contraction: 64 consecutive steps of
// n=4096 each. This is where per-step dispatch overhead compounds.
func BenchmarkManySmallSteps(b *testing.B) {
	const steps, n = 64, 4096
	for _, sched := range schedules {
		b.Run("schedule="+sched.name, func(b *testing.B) {
			m := sched.new()
			defer m.Close()
			m.SetGrain(64) // force fan-out even for the small steps
			dst := make([]int64, n)
			body := benchBody(dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < steps; s++ {
					m.ParallelFor(n, body)
				}
			}
		})
	}
}

// BenchmarkProcsSweep sweeps the simulated processor count from 1 to
// GOMAXPROCS on a fixed-size step, showing scaling of the pooled engine.
func BenchmarkProcsSweep(b *testing.B) {
	const n = 1 << 18
	maxp := runtime.GOMAXPROCS(0)
	for procs := 1; procs <= maxp; procs *= 2 {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			m := New(procs)
			defer m.Close()
			dst := make([]int64, n)
			body := benchBody(dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ParallelFor(n, body)
			}
		})
		if procs == maxp {
			break
		}
		if procs*2 > maxp && procs != maxp {
			procs = maxp / 2 // ensure the final iteration runs at maxp
		}
	}
}

// BenchmarkInlineSmallStep measures the adaptive-grain inline path: steps
// too small to be worth fanning out must cost no more than the plain loop.
func BenchmarkInlineSmallStep(b *testing.B) {
	m := New(0)
	defer m.Close()
	dst := make([]int64, 256)
	body := benchBody(dst)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ParallelFor(len(dst), body)
	}
}

// BenchmarkArenaGetPut measures scratch-buffer round-trips against the
// make() they replace.
func BenchmarkArenaGetPut(b *testing.B) {
	const n = 1 << 16
	m := NewSequential()
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := m.GetInt64s(n)
			s[0] = 1
			m.PutInt64s(s)
		}
	})
	b.Run("make", func(b *testing.B) {
		var sink atomic.Int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := make([]int64, n)
			s[0] = 1
			sink.Store(s[0])
		}
	})
}

package par

import (
	"fmt"
	"testing"

	"repro/internal/pram"
)

// benchList builds the single-chain successor array 0 → 1 → … → n-1 ∘.
func benchList(n int) []int {
	next := make([]int, n)
	for i := 0; i < n-1; i++ {
		next[i] = i + 1
	}
	next[n-1] = n - 1
	return next
}

// BenchmarkListRankContractSchedules is the acceptance microbenchmark of
// the pooled runtime: randomized list contraction at n = 1<<16 runs
// O(log n) rounds of small super-steps, so per-step overhead dominates the
// wall clock. The sequential machine is the baseline the pool must not lose
// to.
func BenchmarkListRankContractSchedules(b *testing.B) {
	const n = 1 << 16
	for _, sched := range []struct {
		name string
		new  func() *pram.Machine
	}{
		{"pooled", func() *pram.Machine { return pram.New(0) }},
		{"sequential", pram.NewSequential},
	} {
		b.Run("schedule="+sched.name, func(b *testing.B) {
			m := sched.new()
			defer m.Close()
			next := benchList(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rank := ListRankContract(m, next)
				if rank[0] != n-1 {
					b.Fatalf("rank[0] = %d", rank[0])
				}
			}
		})
	}
}

// BenchmarkListRankJump is the pointer-doubling variant at the same size.
func BenchmarkListRankJump(b *testing.B) {
	const n = 1 << 16
	m := pram.New(0)
	defer m.Close()
	next := benchList(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rank := ListRank(m, next)
		if rank[0] != n-1 {
			b.Fatalf("rank[0] = %d", rank[0])
		}
	}
}

// BenchmarkScanPrimitives tracks allocs/op of the arena-converted scan and
// pack primitives; before the arena each iteration allocated fresh scratch.
func BenchmarkScanPrimitives(b *testing.B) {
	const n = 1 << 16
	m := pram.New(0)
	defer m.Close()
	a := make([]int64, n)
	for i := range a {
		a[i] = int64((i * 2654435761) % 1000)
	}
	b.Run("ExclusiveScan", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]int64, n)
		for i := 0; i < b.N; i++ {
			copy(buf, a)
			ExclusiveScan(m, buf)
		}
	})
	b.Run("Reduce", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Reduce(m, a, 0, func(x, y int64) int64 { return x + y })
		}
	})
	b.Run("MaxIndex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MaxIndex(m, a)
		}
	})
	b.Run("Pack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Pack(m, n, func(i int) bool { return a[i]&1 == 0 })
		}
	})
}

// BenchmarkSortPerm tracks the radix sort across sizes.
func BenchmarkSortPerm(b *testing.B) {
	m := pram.New(0)
	defer m.Close()
	for _, n := range []int{1 << 12, 1 << 16} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64((i * 48271) % n)
		}
		perm := make([]int, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SortPermInPlace(m, keys, int64(n), perm)
			}
		})
	}
}

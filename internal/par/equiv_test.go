package par

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/pram"
)

// The cross-schedule equivalence suite: every primitive in this package must
// produce bit-identical outputs AND a bit-identical Work/Depth ledger on the
// sequential machine, the pooled machine at forced grains {1, 7} and the
// pooled machine with adaptive grain. The PRAM cost model promises the
// ledger depends only on the algorithm and its input — never on procs or
// grain — and this suite is what holds that promise in place while the
// scheduler changes underneath.

// schedule is one (machine factory, label) point of the matrix.
type schedule struct {
	name string
	mk   func() *pram.Machine
}

func schedules() []schedule {
	grained := func(procs, g int) func() *pram.Machine {
		return func() *pram.Machine {
			m := pram.New(procs)
			m.SetGrain(g)
			return m
		}
	}
	return []schedule{
		{"sequential", pram.NewSequential},
		{"pooled/grain=1", grained(4, 1)},
		{"pooled/grain=7", grained(4, 7)},
		{"pooled/adaptive", func() *pram.Machine { return pram.New(4) }},
	}
}

// result captures one primitive run: any comparable output plus the ledger.
type result struct {
	out         interface{}
	work, depth int64
}

// runMatrix runs f under every schedule and asserts all results match the
// sequential reference exactly.
func runMatrix(t *testing.T, name string, f func(m *pram.Machine) interface{}) {
	t.Helper()
	var ref result
	for i, s := range schedules() {
		m := s.mk()
		out := f(m)
		w, d := m.Counters()
		m.Close()
		got := result{out: out, work: w, depth: d}
		if i == 0 {
			ref = got
			continue
		}
		if got.work != ref.work || got.depth != ref.depth {
			t.Errorf("%s on %s: ledger (work=%d depth=%d), sequential has (work=%d depth=%d)",
				name, s.name, got.work, got.depth, ref.work, ref.depth)
		}
		if !reflect.DeepEqual(got.out, ref.out) {
			t.Errorf("%s on %s: output diverges from sequential", name, s.name)
		}
	}
}

// randForest returns next pointers forming a pseudo-random in-forest with
// self-loop roots (the shape ListRank/ListRankContract/PointerJumpRoots
// consume).
func randForest(rng *rand.Rand, n int) []int {
	next := make([]int, n)
	perm := rng.Perm(n) // process in random order; point at earlier elements
	pos := make([]int, n)
	for i, p := range perm {
		pos[p] = i
	}
	for i := 0; i < n; i++ {
		if pos[i] == 0 || rng.IntN(8) == 0 {
			next[i] = i // root
			continue
		}
		next[i] = perm[rng.IntN(pos[i])]
	}
	return next
}

// randList returns a single chain over [0, n) in random order.
func randList(rng *rand.Rand, n int) []int {
	next := make([]int, n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		next[perm[i]] = perm[i+1]
	}
	next[perm[n-1]] = perm[n-1]
	return next
}

func TestCrossScheduleEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 100, 5000} {
		n := n
		rng := rand.New(rand.NewPCG(42, uint64(n)))
		base := randInt64s(rng, n, 1<<20)
		forest := randForest(rng, n)
		list := randList(rng, n)
		k2 := randInt64s(rng, n, 1<<20)
		k3 := randInt64s(rng, n, 1<<20)

		prims := []struct {
			name string
			f    func(m *pram.Machine) interface{}
		}{
			{"ExclusiveScan", func(m *pram.Machine) interface{} {
				a := append([]int64(nil), base...)
				total := ExclusiveScan(m, a)
				return []interface{}{a, total}
			}},
			{"InclusiveScan", func(m *pram.Machine) interface{} {
				a := append([]int64(nil), base...)
				total := InclusiveScan(m, a)
				return []interface{}{a, total}
			}},
			{"PrefixMax", func(m *pram.Machine) interface{} {
				a := append([]int64(nil), base...)
				PrefixMax(m, a)
				return a
			}},
			{"PrefixMaxLinear", func(m *pram.Machine) interface{} {
				a := append([]int64(nil), base...)
				PrefixMaxLinear(m, a)
				return a
			}},
			{"SuffixMax", func(m *pram.Machine) interface{} {
				a := append([]int64(nil), base...)
				SuffixMax(m, a)
				return a
			}},
			{"Reduce", func(m *pram.Machine) interface{} {
				return Reduce(m, base, 0, func(x, y int64) int64 { return x + y })
			}},
			{"MaxIndex", func(m *pram.Machine) interface{} {
				i, v := MaxIndex(m, base)
				return []interface{}{i, v}
			}},
			{"Pack", func(m *pram.Machine) interface{} {
				return Pack(m, n, func(i int) bool { return base[i]%3 == 0 })
			}},
			{"PackInt64", func(m *pram.Machine) interface{} {
				return PackInt64(m, base, func(i int) bool { return base[i]%2 == 0 })
			}},
			{"Count", func(m *pram.Machine) interface{} {
				return Count(m, n, func(i int) bool { return base[i]%5 == 0 })
			}},
			{"ListRank", func(m *pram.Machine) interface{} {
				return ListRank(m, forest)
			}},
			{"ListRankContract", func(m *pram.Machine) interface{} {
				return ListRankContract(m, forest)
			}},
			{"PointerJumpRoots", func(m *pram.Machine) interface{} {
				return PointerJumpRoots(m, forest)
			}},
			{"JumpTable", func(m *pram.Machine) interface{} {
				jt := NewJumpTable(m, list)
				out := make([]int, 0, 8)
				for _, hops := range []int64{0, 1, 2, int64(n / 2), int64(n - 1), int64(2 * n)} {
					out = append(out, jt.Successor(list[0], hops))
				}
				return out
			}},
			{"ParallelPathToRoot", func(m *pram.Machine) interface{} {
				start := 0
				return ParallelPathToRoot(m, list, start)
			}},
			{"SortPerm", func(m *pram.Machine) interface{} {
				return SortPerm(m, base, 1<<20)
			}},
			{"SortByPair", func(m *pram.Machine) interface{} {
				return SortByPair(m, base, k2, 1<<20)
			}},
			{"SortByTriple", func(m *pram.Machine) interface{} {
				return SortByTriple(m, base, k2, k3, 1<<20)
			}},
		}
		for _, p := range prims {
			t.Run(fmt.Sprintf("%s/n=%d", p.name, n), func(t *testing.T) {
				runMatrix(t, p.name, p.f)
			})
		}
	}
}

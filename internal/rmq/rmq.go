// Package rmq implements range-minimum/maximum queries (the paper's
// Lemma 2.3, Berkman–Vishkin): preprocess an array so that any
// range-extremum query is answered in O(1) time.
//
// We use the sparse-table method: O(n log n) preprocessing work at O(log n)
// depth, O(1) query. The paper's recursive *-tree achieves O(n)
// preprocessing work; the substitution is recorded in DESIGN.md §4 and only
// affects the constant/log factor of *preprocessing*, never query time.
package rmq

import (
	"math/bits"

	"repro/internal/pram"
)

// Table answers range-extremum queries over a fixed array in O(1).
type Table struct {
	a   []int64
	sp  [][]int32 // sp[k][i] = index of extremum in a[i : i+2^k]
	min bool      // true: minima, false: maxima
}

// NewMin builds a range-minimum table. The array is retained by reference
// and must not be mutated afterwards.
func NewMin(m *pram.Machine, a []int64) *Table { return build(m, a, true) }

// NewMax builds a range-maximum table.
func NewMax(m *pram.Machine, a []int64) *Table { return build(m, a, false) }

func build(m *pram.Machine, a []int64, min bool) *Table {
	n := len(a)
	t := &Table{a: a, min: min}
	if n == 0 {
		return t
	}
	levels := bits.Len(uint(n)) // 2^(levels-1) <= n
	t.sp = make([][]int32, levels)
	t.sp[0] = make([]int32, n)
	m.ParallelFor(n, func(i int) { t.sp[0][i] = int32(i) })
	for k := 1; k < levels; k++ {
		width := 1 << k
		cnt := n - width + 1
		if cnt <= 0 {
			t.sp = t.sp[:k]
			break
		}
		t.sp[k] = make([]int32, cnt)
		prev, cur := t.sp[k-1], t.sp[k]
		half := width / 2
		m.ParallelFor(cnt, func(i int) {
			x, y := prev[i], prev[i+half]
			if t.better(int(x), int(y)) {
				cur[i] = x
			} else {
				cur[i] = y
			}
		})
	}
	return t
}

// better reports whether index x beats index y under this table's order,
// breaking ties toward the lower index.
func (t *Table) better(x, y int) bool {
	if t.min {
		if t.a[x] != t.a[y] {
			return t.a[x] < t.a[y]
		}
	} else {
		if t.a[x] != t.a[y] {
			return t.a[x] > t.a[y]
		}
	}
	return x <= y
}

// QueryIndex returns the index of the extremum of a[lo..hi] (inclusive),
// lowest index among ties. Panics if the range is empty or out of bounds.
func (t *Table) QueryIndex(lo, hi int) int {
	if lo > hi || lo < 0 || hi >= len(t.a) {
		panic("rmq: bad range")
	}
	k := bits.Len(uint(hi-lo+1)) - 1
	x := int(t.sp[k][lo])
	y := int(t.sp[k][hi-(1<<k)+1])
	if t.better(x, y) {
		return x
	}
	return y
}

// Query returns the extremum value of a[lo..hi] (inclusive).
func (t *Table) Query(lo, hi int) int64 { return t.a[t.QueryIndex(lo, hi)] }

// Len returns the length of the underlying array.
func (t *Table) Len() int { return len(t.a) }

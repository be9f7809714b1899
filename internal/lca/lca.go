// Package lca answers lowest-common-ancestor queries in O(1) after
// Euler-tour + range-minimum preprocessing, and ancestor-at-depth queries by
// binary lifting. The paper uses LCA both inside the nearest-colored-
// ancestors structure (§3.2, LCAs inside skeleton trees) and for the O(1)
// longest-common-prefix queries of Lemma 2.6 (LCP of two suffixes = string
// depth of the LCA of their leaves).
package lca

import (
	"repro/internal/eulertour"
	"repro/internal/pram"
	"repro/internal/rmq"
)

// Index answers LCA queries over a fixed rooted tree.
type Index struct {
	Tour *eulertour.Tour
	rmq  *rmq.Table
}

// New preprocesses the tree. Work O(n log n) (sparse table), depth O(log n).
func New(m *pram.Machine, tree *eulertour.Tree) *Index {
	tour := tree.Euler(m)
	return FromTour(m, tour)
}

// FromTour builds the index from an existing Euler tour.
func FromTour(m *pram.Machine, tour *eulertour.Tour) *Index {
	return &Index{Tour: tour, rmq: rmq.NewMin(m, tour.VisitDepth)}
}

// Query returns the lowest common ancestor of u and v.
func (x *Index) Query(u, v int) int {
	a, b := x.Tour.First[u], x.Tour.First[v]
	if a > b {
		a, b = b, a
	}
	return int(x.Tour.Order[x.rmq.QueryIndex(int(a), int(b))])
}

// Depth returns the edge depth of v.
func (x *Index) Depth(v int) int32 { return x.Tour.Depth[v] }

// Lifting provides ancestor-at-depth ("level ancestor") queries via binary
// lifting: O(n log n) preprocessing, O(log n) per query. It optionally
// carries a monotone weight per node (for suffix trees: string depth), and
// can then find the shallowest ancestor whose weight is >= a threshold.
type Lifting struct {
	up     [][]int32
	parent []int
	weight []int64 // weight[v] strictly increasing from parent to child
}

// NewLifting builds the jump table. weight may be nil; if given, it must be
// strictly increasing along every root-to-leaf path (weight[parent] <
// weight[child]).
func NewLifting(m *pram.Machine, parent []int, weight []int64) *Lifting {
	n := len(parent)
	levels := 1
	for 1<<levels < n {
		levels++
	}
	up := make([][]int32, levels)
	up[0] = make([]int32, n)
	m.ParallelFor(n, func(v int) {
		if parent[v] < 0 {
			up[0][v] = int32(v)
		} else {
			up[0][v] = int32(parent[v])
		}
	})
	for k := 1; k < levels; k++ {
		up[k] = make([]int32, n)
		prev, cur := up[k-1], up[k]
		m.ParallelFor(n, func(v int) { cur[v] = prev[prev[v]] })
	}
	return &Lifting{up: up, parent: parent, weight: weight}
}

// Ancestor returns the hops-th ancestor of v (saturating at the root).
func (l *Lifting) Ancestor(v int, hops int) int {
	if max := len(l.up[0]) - 1; hops > max {
		hops = max // paths have at most n-1 edges; the root self-loops
	}
	for k := 0; hops > 0 && k < len(l.up); k++ {
		if hops&1 == 1 {
			v = int(l.up[k][v])
		}
		hops >>= 1
	}
	return v
}

// ShallowestWithWeightAtLeast returns the highest ancestor a of v (possibly
// v itself) with weight[a] >= w. If even v fails the predicate it returns
// -1. Requires a weight slice.
func (l *Lifting) ShallowestWithWeightAtLeast(v int, w int64) int {
	if l.weight[v] < w {
		return -1
	}
	// Climb as long as the parent still satisfies weight >= w.
	for k := len(l.up) - 1; k >= 0; k-- {
		a := int(l.up[k][v])
		if l.weight[a] >= w {
			v = a
		}
	}
	// v now satisfies the predicate and its parent does not (or v is root).
	if p := l.parent[v]; p >= 0 && l.weight[p] >= w {
		v = p // root self-loop edge case
	}
	return v
}

// DeepestWithWeightLess returns the deepest ancestor a of v (possibly v)
// with weight[a] < w, or -1 if none (i.e. weight[root] >= w).
func (l *Lifting) DeepestWithWeightLess(v int, w int64) int {
	if l.weight[v] < w {
		return v
	}
	for k := len(l.up) - 1; k >= 0; k-- {
		a := int(l.up[k][v])
		if l.weight[a] >= w {
			v = a
		}
	}
	// v is the shallowest node with weight >= w; its parent is the answer.
	p := l.parent[v]
	if p < 0 {
		return -1
	}
	return p
}

// Package eulertour computes Euler tours of rooted trees and the standard
// quantities derived from them: depth, first/last visit positions, preorder
// numbers and subtree sizes. The parallel construction follows the classic
// recipe — orient the tree edges, link each directed edge to its tour
// successor, and list-rank the resulting linked list — which is exactly the
// "Euler tour technique" the paper invokes throughout (§2, §4.1).
package eulertour

import (
	"repro/internal/par"
	"repro/internal/pram"
)

// Tree is a rooted tree over nodes [0, n) given by parent pointers, with a
// child adjacency index in CSR form (children of a node appear in increasing
// node order).
type Tree struct {
	N      int
	Root   int
	Parent []int
	cstart []int32 // cstart[v]..cstart[v+1] indexes into childs
	childs []int32
}

// New builds the child index from parent pointers. parent[root] must be -1
// and there must be exactly one root. Work O(n) plus one radix sort.
func New(m *pram.Machine, parent []int) *Tree {
	n := len(parent)
	t := &Tree{N: n, Root: -1, Parent: parent}
	if n == 0 {
		return t
	}
	keys := make([]int64, n)
	root := pram.NewCellsFilled(1, -1)
	m.ParallelFor(n, func(v int) {
		if parent[v] < 0 {
			root.Write(0, int64(v))
			keys[v] = int64(n) // sort roots last, they are not children
		} else {
			keys[v] = int64(parent[v])
		}
	})
	t.Root = int(root.Read(0))
	if t.Root < 0 {
		panic("eulertour: no root")
	}
	perm := par.SortPerm(m, keys, int64(n))
	// perm lists nodes grouped by parent (stable → increasing node order
	// within a group); build CSR offsets.
	t.childs = make([]int32, n-1)
	t.cstart = make([]int32, n+1)
	cnt := make([]int64, n)
	// Count children per node with combining writes.
	ccells := pram.NewCells(n)
	m.ParallelFor(n, func(v int) {
		if parent[v] >= 0 {
			ccells.Add(parent[v], 1)
		}
	})
	m.ParallelFor(n, func(v int) { cnt[v] = ccells.Read(v) })
	par.ExclusiveScan(m, cnt)
	m.ParallelFor(n+1, func(v int) {
		if v < n {
			t.cstart[v] = int32(cnt[v])
		} else {
			t.cstart[v] = int32(n - 1)
		}
	})
	m.ParallelFor(n-1, func(j int) { t.childs[j] = int32(perm[j]) })
	return t
}

// Children returns the children of v in increasing node order. The returned
// slice aliases internal storage; do not modify.
func (t *Tree) Children(v int) []int32 {
	return t.childs[t.cstart[v]:t.cstart[v+1]]
}

// Degree returns the number of children of v.
func (t *Tree) Degree(v int) int { return int(t.cstart[v+1] - t.cstart[v]) }

// Tour holds an Euler tour and its derived arrays. All positions refer to
// the node-visit sequence Order, which has length 2n-1.
type Tour struct {
	Order      []int32 // node at each visit
	First      []int32 // first visit position of each node
	Last       []int32 // last visit position of each node
	Depth      []int32 // edge depth of each node (root = 0)
	VisitDepth []int64 // Depth[Order[i]] for RMQ-based LCA
	Pre        []int32 // preorder number of each node
	Size       []int32 // subtree size of each node
}

// Euler computes the tour. Parallel machines use edge-successor linking plus
// list ranking (O(n log n) work, O(log n) depth); a sequential machine uses
// an explicit-stack DFS (O(n) work) — the outputs are identical, which the
// tests assert.
func (t *Tree) Euler(m *pram.Machine) *Tour {
	if t.N == 0 {
		return &Tour{}
	}
	if t.N == 1 {
		return &Tour{
			Order:      []int32{int32(t.Root)},
			First:      []int32{0},
			Last:       []int32{0},
			Depth:      []int32{0},
			VisitDepth: []int64{0},
			Pre:        []int32{0},
			Size:       []int32{1},
		}
	}
	if m.Sequential() {
		return t.eulerSeq(m)
	}
	return t.eulerPar(m)
}

func (t *Tree) eulerSeq(m *pram.Machine) *Tour {
	m.Account(int64(4*t.N), int64(2*t.N)) // DFS: linear work, linear depth
	tour := t.eulerDFS()
	t.finishTour(m, tour)
	return tour
}

// eulerDFS is eulerSeq's explicit-stack DFS. It fills everything except
// VisitDepth and Size, which finishTour derives.
func (t *Tree) eulerDFS() *Tour {
	n := t.N
	tour := newTour(n)
	type frame struct {
		v    int
		next int // index into children
	}
	stack := []frame{{t.Root, 0}}
	tour.Order[0] = int32(t.Root)
	tour.First[t.Root] = 0
	pos := int32(0)
	pre := int32(0)
	tour.Pre[t.Root] = pre
	pre++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ch := t.Children(f.v)
		if f.next < len(ch) {
			c := int(ch[f.next])
			f.next++
			tour.Depth[c] = tour.Depth[f.v] + 1
			pos++
			tour.Order[pos] = int32(c)
			tour.First[c] = pos
			tour.Pre[c] = pre
			pre++
			stack = append(stack, frame{c, 0})
		} else {
			tour.Last[f.v] = pos
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				pos++
				tour.Order[pos] = int32(stack[len(stack)-1].v)
			}
		}
	}
	return tour
}

// eulerPar builds the tour with edge linking + list ranking.
func (t *Tree) eulerPar(m *pram.Machine) *Tour {
	n := t.N
	// Directed edge ids: down(v) = v (edge parent(v)->v), up(v) = n+v, for
	// v != root. Ids for the root are unused.
	total := 2 * n
	succ := make([]int, total)
	// childIndex[v] = position of v among its siblings; next sibling lookup.
	m.ParallelFor(n, func(v int) {
		down, up := v, n+v
		if v == t.Root {
			succ[down], succ[up] = down, up // unused self-loops
			return
		}
		ch := t.Children(v)
		if len(ch) > 0 {
			succ[down] = int(ch[0]) // down(first child of v)
		} else {
			succ[down] = up
		}
		p := t.Parent[v]
		sib := t.Children(p)
		// Find v's position among siblings by binary search (children are
		// sorted by node index).
		lo, hi := 0, len(sib)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if int(sib[mid]) < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo+1 < len(sib) {
			succ[up] = int(sib[lo+1]) // down(next sibling)
		} else if p == t.Root {
			succ[up] = up // tour terminal candidate
		} else {
			succ[up] = n + p // up(parent)
		}
	})
	// The tour ends at up(last child of root), which was made a self-loop
	// above; list-rank the edge chain to get tour positions.
	rank := par.ListRank(m, succ)
	tourLen := 2 * (n - 1) // number of directed edges
	// Position of edge e = tourLen-1-rank[e] for edges on the path from
	// start; edges of other root children chains... every edge is on the
	// single tour path from start, except unused root self-loops.
	tour := newTour(n)
	edgeAt := make([]int32, tourLen) // edge occupying each tour position
	m.ParallelFor(n, func(v int) {
		if v == t.Root {
			return
		}
		posDown := tourLen - 1 - int(rank[v])
		posUp := tourLen - 1 - int(rank[n+v])
		edgeAt[posDown] = int32(v)
		edgeAt[posUp] = int32(n + v)
	})
	// Node-visit sequence: Order[0] = root; Order[i+1] = head of edge i.
	tour.Order[0] = int32(t.Root)
	m.ParallelFor(tourLen, func(i int) {
		e := int(edgeAt[i])
		if e < n {
			tour.Order[i+1] = int32(e)
		} else {
			tour.Order[i+1] = int32(t.Parent[e-n])
		}
	})
	// Depth via +1/-1 prefix sums over edges.
	w := make([]int64, tourLen)
	m.ParallelFor(tourLen, func(i int) {
		if int(edgeAt[i]) < n {
			w[i] = 1
		} else {
			w[i] = -1
		}
	})
	par.InclusiveScan(m, w)
	m.ParallelFor(n, func(v int) {
		if v == t.Root {
			tour.First[t.Root] = 0
			tour.Last[t.Root] = int32(2*n - 2)
			tour.Depth[t.Root] = 0
			tour.Pre[t.Root] = 0
			return
		}
		posDown := tourLen - 1 - int(rank[v])
		posUp := tourLen - 1 - int(rank[n+v])
		tour.First[v] = int32(posDown + 1)
		tour.Last[v] = int32(posUp)
		tour.Depth[v] = int32(w[posDown])
		// Preorder: number of down-edges at positions <= posDown.
		tour.Pre[v] = int32((int64(posDown) + 1 + w[posDown]) / 2)
	})
	t.finishTour(m, tour)
	return tour
}

func newTour(n int) *Tour {
	return &Tour{
		Order:      make([]int32, 2*n-1),
		First:      make([]int32, n),
		Last:       make([]int32, n),
		Depth:      make([]int32, n),
		VisitDepth: make([]int64, 2*n-1),
		Pre:        make([]int32, n),
		Size:       make([]int32, n),
	}
}

func (t *Tree) finishTour(m *pram.Machine, tour *Tour) {
	n := t.N
	m.ParallelFor(len(tour.Order), func(i int) {
		tour.VisitDepth[i] = int64(tour.Depth[tour.Order[i]])
	})
	m.ParallelFor(n, func(v int) {
		tour.Size[v] = (tour.Last[v]-tour.First[v])/2 + 1
	})
}

// InSubtree reports whether node u lies in the subtree rooted at v.
func (tr *Tour) InSubtree(u, v int) bool {
	return tr.First[v] <= tr.First[u] && tr.First[u] <= tr.Last[v]
}

// Package colorednca implements the paper's nearest colored ancestors
// problem (§3.2): preprocess a rooted tree whose nodes carry colors so that
// Find(v, c) — the nearest ancestor of v (possibly v itself) colored c —
// is answered fast.
//
// Both of the paper's variants are provided:
//
//   - Naive: O(n·|C|) preprocessing work, O(1) query. The paper builds a
//     skeleton tree per color and answers with an LCA; we materialize the
//     equivalent per-color ancestor tables directly (same bounds, same
//     answers).
//   - Improved: O(n + C) structure size, O(log log n) query, where C is the
//     total number of (node, color) pairs. Exactly as in the paper, the
//     colored nodes of each color are reduced to ranges of Euler-tour
//     positions queried through a van Emde Boas predecessor structure.
//
// The single-color special case (the paper's Lemma 2.7, nearest *marked*
// ancestor) is NearestMarkedAll, computed for every node at once by pointer
// doubling.
package colorednca

import (
	"sort"

	"repro/internal/eulertour"
	"repro/internal/par"
	"repro/internal/pram"
	"repro/internal/veb"
)

// Colored assigns Color to Node. A node may carry several colors.
type Colored struct {
	Node  int
	Color int32
}

// Naive is the O(n·|C|)-preprocessing, O(1)-query variant.
type Naive struct {
	classOf map[int32]int
	anc     [][]int32 // anc[class][v] = nearest class-colored ancestor of v, -1 if none
}

// NewNaive builds per-color nearest-ancestor tables. Distinct colors each
// cost one O(n) top-down pass (run as |C| parallel pointer-doubling passes).
func NewNaive(m *pram.Machine, tree *eulertour.Tree, colors []Colored) *Naive {
	s := &Naive{classOf: make(map[int32]int)}
	byColor := groupByColor(colors)
	for _, g := range byColor {
		s.classOf[g.color] = len(s.anc)
		marked := make([]bool, tree.N)
		for _, v := range g.nodes {
			marked[v] = true
		}
		s.anc = append(s.anc, NearestMarkedAll(m, tree.Parent, marked))
	}
	return s
}

// Find returns the nearest ancestor of v (or v itself) with color c, or -1.
func (s *Naive) Find(v int, c int32) int {
	cl, ok := s.classOf[c]
	if !ok {
		return -1
	}
	return int(s.anc[cl][v])
}

// Improved is the O(n + C)-size, O(log log n)-query variant.
type Improved struct {
	tour    *eulertour.Tour
	classOf map[int32]int
	classes []colorClass
}

type colorClass struct {
	set    *veb.Tree     // Euler-tour First/Last positions of colored nodes
	owner  map[int]int32 // position -> colored node
	upSame []int32       // per colored node (indexed in class order): nearest
	// same-color proper ancestor, -1 if none
	indexIn map[int]int // node -> index into upSame
}

type colorGroup struct {
	color int32
	nodes []int
}

func groupByColor(colors []Colored) []colorGroup {
	sorted := append([]Colored(nil), colors...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Color != sorted[j].Color {
			return sorted[i].Color < sorted[j].Color
		}
		return sorted[i].Node < sorted[j].Node
	})
	var out []colorGroup
	for i := 0; i < len(sorted); {
		j := i
		var nodes []int
		for ; j < len(sorted) && sorted[j].Color == sorted[i].Color; j++ {
			if len(nodes) == 0 || nodes[len(nodes)-1] != sorted[j].Node {
				nodes = append(nodes, sorted[j].Node)
			}
		}
		out = append(out, colorGroup{sorted[i].Color, nodes})
		i = j
	}
	return out
}

// NewImproved builds the Euler-range + van Emde Boas structure. The work is
// O(n) for the tour plus O(C log log n) over all color classes; classes are
// processed as one parallel step whose per-processor cost is the class size
// (charged as the maximum class size, see the Account call).
func NewImproved(m *pram.Machine, tree *eulertour.Tree, tour *eulertour.Tour, colors []Colored) *Improved {
	s := &Improved{tour: tour, classOf: make(map[int32]int)}
	groups := groupByColor(colors)
	s.classes = make([]colorClass, len(groups))
	maxClass := 0
	total := 0
	for i, g := range groups {
		s.classOf[g.color] = i
		if len(g.nodes) > maxClass {
			maxClass = len(g.nodes)
		}
		total += len(g.nodes)
	}
	universe := len(tour.Order)
	if universe == 0 {
		universe = 1
	}
	m.Account(int64(total), int64(maxClass))
	m.ParallelFor(len(groups), func(i int) {
		s.classes[i] = buildColorClass(tour, universe, groups[i])
	})
	return s
}

// buildColorClass materializes one color's structure: van Emde Boas set of
// Euler positions, position→node ownership, and per-node nearest same-color
// proper ancestor. Deterministic given the tour.
func buildColorClass(tour *eulertour.Tour, universe int, g colorGroup) colorClass {
	cl := colorClass{
		set:     veb.New(universe),
		owner:   make(map[int]int32, 2*len(g.nodes)),
		upSame:  make([]int32, len(g.nodes)),
		indexIn: make(map[int]int, len(g.nodes)),
	}
	// Nodes sorted by First position = preorder within the class.
	nodes := append([]int(nil), g.nodes...)
	sort.Slice(nodes, func(a, b int) bool { return tour.First[nodes[a]] < tour.First[nodes[b]] })
	var stack []int
	for k, v := range nodes {
		cl.indexIn[v] = k
		f, l := int(tour.First[v]), int(tour.Last[v])
		cl.set.Insert(f)
		cl.set.Insert(l)
		// Tour positions identify nodes uniquely (position p is an
		// event of Order[p] only), so these writes never collide.
		cl.owner[f] = int32(v)
		cl.owner[l] = int32(v)
		// Pop closed intervals; the top of the stack then encloses v.
		for len(stack) > 0 && tour.Last[stack[len(stack)-1]] < tour.First[v] {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			cl.upSame[k] = -1
		} else {
			cl.upSame[k] = int32(stack[len(stack)-1])
		}
		stack = append(stack, v)
	}
	return cl
}

// Find returns the nearest ancestor of v (or v itself) colored c, or -1.
// O(log log n): one predecessor query plus O(1) checks.
func (s *Improved) Find(v int, c int32) int {
	ci, ok := s.classOf[c]
	if !ok {
		return -1
	}
	cl := &s.classes[ci]
	fv := int(s.tour.First[v])
	p := cl.set.Predecessor(fv + 1) // largest stored position <= First[v]
	if p == veb.None {
		return -1
	}
	u := int(cl.owner[p])
	// If u's tour interval contains v's first visit, u is the answer (it is
	// the deepest colored ancestor: any deeper one would have an event
	// between p and First[v]). Otherwise u's subtree closed before v, and
	// the colored ancestors of v coincide with the colored proper ancestors
	// of u, whose nearest representative was precomputed.
	if s.tour.First[u] <= s.tour.First[v] && s.tour.First[v] <= s.tour.Last[u] {
		return u
	}
	return int(cl.upSame[cl.indexIn[u]])
}

// NearestMarkedAll solves the paper's Lemma 2.7 for every node at once:
// given marked nodes, return each node's nearest marked ancestor (possibly
// itself), or -1. Pointer doubling over "stop at marked" parents: O(log n)
// rounds, O(n log n) work.
func NearestMarkedAll(m *pram.Machine, parent []int, marked []bool) []int32 {
	n := len(parent)
	f := m.GetInts(n)
	m.ParallelFor(n, func(v int) {
		if marked[v] || parent[v] < 0 {
			f[v] = v
		} else {
			f[v] = parent[v]
		}
	})
	roots := par.PointerJumpRoots(m, f)
	m.PutInts(f)
	out := make([]int32, n)
	m.ParallelFor(n, func(v int) {
		r := roots[v]
		if marked[r] {
			out[v] = int32(r)
		} else {
			out[v] = -1
		}
	})
	m.PutInts(roots)
	return out
}

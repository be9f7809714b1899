package core

import (
	"repro/internal/fingerprint"
	"repro/internal/pram"
)

// Step 1A via a separator tree — the technique of [5] (Amir–Farach–Matias)
// that the paper invokes: "We first construct a separator decomposition of
// the suffix tree of D̂. Then we trace down from the root starting from each
// of the desired text locations independently. The key is that string
// comparison along the edges and separators are done using fingerprints."
//
// The separator tree here is the centroid decomposition of the suffix
// tree. Locating the longest prefix of a text suffix Q works on the
// predicate T(v) := "Q[0:depth(v)] == σ(v)" (one O(1) fingerprint
// comparison): the nodes with T true form exactly the explicit-node chain
// of Q's path, so the search maintains
//
//	best — the deepest node with T confirmed true (initially the root), and
//	nb   — the only possible next explicit path node: best's child along
//	       Q's next symbol,
//
// and walks down nb's centroid-ancestor chain one level per step. Every
// visited centroid c is tested; T(c) true and deeper than best advances
// best (and re-derives nb); T(nb) false ends the explicit search. Because
// candidates always lie in the current centroid component and component
// sizes halve, the walk takes O(log d) probes. The final mid-edge
// extension below best is one fingerprint binary search on the edge.
//
// Compared to the suffix-array anchor descent (anchorDescent, O(log^2 d)
// probes), this restores the paper's Step 1A cost; both strategies are
// kept and compared in experiment E1b.

// AnchorStrategy selects the Step 1A locate mechanism.
type AnchorStrategy int

const (
	// AnchorSeparator uses the separator-tree descent (the paper's [5]
	// technique): O(log d) fingerprint probes per anchor.
	AnchorSeparator AnchorStrategy = iota
	// AnchorSA uses plain suffix-array binary search with fingerprint-
	// accelerated comparisons: O(log^2 d) probes, no extra structure.
	AnchorSA
)

// sepTree holds, for every suffix-tree node, its centroid-decomposition
// ancestor chain (root of the decomposition first, the node itself last).
type sepTree struct {
	danc  [][]int32
	depth int // maximum chain length
}

// buildSeparator computes the centroid decomposition of the suffix tree.
// Sequential recursion over components: O(n log n) work, charged to the
// machine ledger.
func (d *Dictionary) buildSeparator(m *pram.Machine) *sepTree {
	st := d.st
	n := st.NumNodes
	s := &sepTree{danc: make([][]int32, n)}
	removed := make([]bool, n)
	size := make([]int32, n)

	// neighbors yields the tree neighbors of v (parent + children) that
	// are not removed.
	neighbors := func(v int, yield func(int) bool) {
		if p := st.Parent[v]; p >= 0 && !removed[p] {
			if !yield(p) {
				return
			}
		}
		for _, c := range st.Topo.Children(v) {
			if !removed[c] {
				if !yield(int(c)) {
					return
				}
			}
		}
	}

	// compSize computes subtree sizes of the component containing start,
	// rooted at start, via an explicit-stack DFS, filling size[] and the
	// rooted orientation in rootedParent (epoch-stamped arrays: each
	// component walk bumps the epoch instead of clearing).
	var stack []int32
	var order []int32
	rootedParentArr := make([]int32, n)
	epochOf := make([]int32, n)
	epoch := int32(0)
	rootedParent := func(u int32) int32 {
		if epochOf[u] != epoch {
			return -2 // not visited this walk
		}
		return rootedParentArr[u]
	}
	compSize := func(start int) int32 {
		epoch++
		stack = append(stack[:0], int32(start))
		order = order[:0]
		epochOf[start] = epoch
		rootedParentArr[start] = -1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, v)
			neighbors(int(v), func(u int) bool {
				if epochOf[u] != epoch {
					epochOf[u] = epoch
					rootedParentArr[u] = v
					stack = append(stack, int32(u))
				}
				return true
			})
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			size[v] = 1
			neighbors(int(v), func(u int) bool {
				if rootedParent(int32(u)) == v {
					size[v] += size[u]
				}
				return true
			})
		}
		return size[start]
	}

	var total int64
	var build func(start int, chain []int32)
	build = func(start int, chain []int32) {
		csize := compSize(start)
		total += int64(csize)
		// Centroid: walk downward (in the rooted orientation) into any
		// child side heavier than csize/2; when none exists, the parent
		// side cannot exceed csize/2 either (classic argument).
		c := start
		for {
			descend := -1
			neighbors(c, func(u int) bool {
				if rootedParent(int32(u)) == int32(c) && size[u] > csize/2 {
					descend = u
					return false
				}
				return true
			})
			if descend == -1 {
				break
			}
			c = descend
		}
		chain = append(chain, int32(c))
		s.danc[c] = append([]int32(nil), chain...)
		if len(chain) > s.depth {
			s.depth = len(chain)
		}
		removed[c] = true
		neighbors(c, func(u int) bool {
			build(u, chain)
			return true
		})
	}
	build(st.Root, nil)

	lg := int64(1)
	for 1<<lg < n {
		lg++
	}
	m.Account(total, lg*lg)
	return s
}

// testT reports whether Q (the text suffix at i, with nQ symbols left)
// fully matches σ(c): one fingerprint comparison.
func (d *Dictionary) testT(fpText *fingerprint.Table, i, nQ, c int) bool {
	h := int(d.st.StrDepth[c])
	if h > nQ {
		return false
	}
	if h == 0 {
		return true
	}
	return fpText.Equal(i, d.fpDict, int(d.st.Witness(c)), h)
}

// anchorSeparator locates the longest prefix of text[i:] present in D̂ via
// the separator tree. O(log d) fingerprint probes plus one edge binary
// search.
func (d *Dictionary) anchorSeparator(tsym []int32, fpText *fingerprint.Table, i int) locus {
	st := d.st
	nQ := len(tsym) - i
	best := st.Root
	nextNB := func() int {
		h := int(st.StrDepth[best])
		if h >= nQ {
			return -1
		}
		return st.ChildByChar(best, tsym[i+h])
	}
	nb := nextNB()
	for level := 0; nb != -1; level++ {
		chain := d.sep.danc[nb]
		if level >= len(chain) {
			break // nb itself was tested at the last level
		}
		c := int(chain[level])
		if d.testT(fpText, i, nQ, c) {
			if st.StrDepth[c] > st.StrDepth[best] {
				best = c
				nb = nextNB()
			}
			continue
		}
		if c == nb {
			break // the only possible next explicit node fails: mid-edge end
		}
	}
	// Mid-edge extension below best toward nb.
	h := int32(st.StrDepth[best])
	if nb == -1 {
		return locus{int32(best), h}
	}
	cap := min32(int32(nQ)-h, st.StrDepth[nb]-h)
	ext := int32(d.fpLCP(fpText, i+int(h), int(st.Witness(nb))+int(h), int(cap)))
	if ext == 0 {
		// nb is best's child on Q's next symbol, so at least one symbol
		// matches; a zero here can only mean a fingerprint anomaly. Fall
		// back to the node locus (the checker will catch real corruption).
		return locus{int32(best), h}
	}
	return locus{int32(nb), h + ext}
}

package core

import (
	"repro/internal/fingerprint"
	"repro/internal/pram"
)

// locus is a position in the suffix tree of D̂: the string aug[wit(z) :
// wit(z)+l], which lies on the edge entering node z (or at z itself when
// l == StrDepth[z]). l == 0 means the root.
type locus struct {
	z int32
	l int32
}

// substringMatch is the paper's Step 1 (dictionary substring matching): for
// every text position i it returns the locus of S[i], the longest substring
// of D̂ that starts at T[i].
//
// Step 1A computes S at one anchor per window of length L by binary search
// in the suffix array with fingerprint-accelerated comparisons (O(log^2 d)
// per anchor — the documented substitute for the separator-tree descent of
// [5], DESIGN.md §4). Step 1B extends the anchor leftwards across its
// window with the ExtendLeft procedure: one nearest-colored-ancestor query
// plus O(1) exact LCP queries per position, no fingerprints.
func (d *Dictionary) substringMatch(m *pram.Machine, text []byte) []locus {
	n := len(text)
	out := make([]locus, n)
	if n == 0 {
		return out
	}
	tsym := m.GetInt32s(n)
	defer m.PutInt32s(tsym)
	// Augmented symbol space: symbol+1, so the sentinel 0 never occurs.
	m.ParallelFor(n, func(i int) { tsym[i] = int32(text[i]) + 1 })
	hasher := d.hasher.WithCapacity(n)
	fpText := hasher.NewTableInts(m, tsym)

	L := d.windowL
	windows := (n + L - 1) / L
	lg := int64(2)
	for 1<<lg < d.st.AugLen() {
		lg++
	}
	// Per-window cost: one anchor locate plus up to L-1 ExtendLefts, each
	// costing one nearest-colored-ancestor query — O(1) on the naive
	// structure (Theorem 3.1's constant-alphabet regime), O(log log d) on
	// the van Emde Boas structure (Theorem 3.2). The anchor costs O(log d)
	// probes via the separator tree (the paper's Step 1A) or O(log^2 d)
	// via suffix-array binary search.
	anchorCost := lg
	if d.anchor == AnchorSA {
		anchorCost = lg * lg
	}
	m.ParallelForCost(windows, anchorCost+int64(L)*d.ncaQueryCost(), func(w int) {
		anchor := (w+1)*L - 1
		if anchor >= n {
			anchor = n - 1
		}
		if d.anchor == AnchorSeparator {
			out[anchor] = d.anchorSeparator(tsym, fpText, anchor)
		} else {
			out[anchor] = d.anchorDescent(tsym, fpText, anchor)
		}
		for i := anchor; i > w*L; i-- {
			out[i-1] = d.extendLeft(tsym[i-1], out[i])
		}
	})
	return out
}

// anchorDescent returns the locus of the longest prefix of text[i:] that
// occurs in D̂, by binary search over the suffix array.
func (d *Dictionary) anchorDescent(tsym []int32, fpText *fingerprint.Table, i int) locus {
	st := d.st
	n, n1 := len(tsym), st.NumLeaves()
	// Insertion point: first rank r with dictSuffix(SA[r]) >= textSuffix(i).
	lo, hi := 0, n1
	for lo < hi {
		mid := (lo + hi) / 2
		p := int(st.SA[mid])
		l := d.fpLCP(fpText, i, p, min(n-i, n1-1-p))
		dictLess := false
		if i+l >= n {
			dictLess = false // text exhausted: text is a prefix, dict >= text
		} else {
			cd := st.AugAt(int32(p + l)) // in range: dict suffixes end at the sentinel
			ct := tsym[i+l]
			dictLess = cd < ct
		}
		if dictLess {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best, bestRank := 0, -1
	for _, r := range [2]int{lo - 1, lo} {
		if r < 0 || r >= n1 {
			continue
		}
		p := int(st.SA[r])
		l := d.fpLCP(fpText, i, p, min(n-i, n1-1-p))
		if l > best || bestRank == -1 {
			best, bestRank = l, r
		}
	}
	if best == 0 {
		return locus{int32(st.Root), 0}
	}
	leaf := int(st.LeafID[st.SA[bestRank]])
	z := d.lift.ShallowestWithWeightAtLeast(leaf, int64(best))
	return locus{int32(z), int32(best)}
}

// fpLCP returns the longest l <= maxl with text[i:i+l] == aug[p:p+l], by
// binary search over fingerprint equality (Monte Carlo).
func (d *Dictionary) fpLCP(fpText *fingerprint.Table, i, p, maxl int) int {
	if maxl <= 0 {
		return 0
	}
	if !fpText.Equal(i, d.fpDict, p, 1) {
		return 0
	}
	lo, hi := 1, maxl // invariant: equal at lo
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fpText.Equal(i, d.fpDict, p, mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// extendLeft implements the paper's ExtendLeft (Observations 1 and 2 plus
// Steps 1B.1 and 1B.2): given the locus of S = S[i] and the preceding text
// symbol a (augmented space), return the locus of S[i-1], the longest
// prefix of a·S present in D̂. Deterministic: one colored-ancestor query and
// O(1) exact LCP/child lookups.
func (d *Dictionary) extendLeft(a int32, cur locus) locus {
	st := d.st
	z, l := int(cur.z), cur.l
	u := z
	if l < st.StrDepth[z] {
		u = st.Parent[z]
	}
	wx := st.Witness(z) // S = aug[wx : wx+l]
	ua := d.findColored(u, a)
	if ua < 0 {
		// No explicit node labeled a·(prefix of S): the match, if any, lies
		// within the root's a-edge.
		r := st.ChildByChar(st.Root, a)
		if r < 0 {
			return locus{int32(st.Root), 0}
		}
		ext := int32(0)
		if l > 0 {
			cap := min32(l, st.StrDepth[r]-1)
			if cap > 0 {
				lcp := st.LCPSuffixes(wx, st.Witness(r)+1)
				ext = min32(lcp, cap)
			}
		}
		return locus{int32(r), ext + 1} // a matched on r's edge plus ext more
	}
	w := int(d.weinerTarget(ua, a)) // σ(w) = a·σ(ua)
	dua := st.StrDepth[ua]
	if dua == l {
		// S == σ(ua): the whole of a·S is matched by w.
		return locus{int32(w), st.StrDepth[w]}
	}
	q := st.AugAt(wx + dua) // next symbol of S after σ(ua)
	r := st.ChildByChar(w, q)
	if r < 0 {
		return locus{int32(w), st.StrDepth[w]}
	}
	cap := min32(l-dua, st.StrDepth[r]-st.StrDepth[w])
	lcp := st.LCPSuffixes(wx+dua, st.Witness(r)+st.StrDepth[w])
	ext := min32(lcp, cap)
	if ext == 0 {
		// q matched by construction (r is the q-child), so ext >= 1 unless
		// the LCP query is asked with zero remaining — defensive only.
		return locus{int32(w), st.StrDepth[w]}
	}
	return locus{int32(r), st.StrDepth[w] + ext}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

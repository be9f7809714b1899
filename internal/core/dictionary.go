// Package core implements the paper's primary contribution (§3): the first
// work-optimal parallel dictionary matching algorithm.
//
// Preprocessing (O(d)-work up to documented log factors, DESIGN.md §4)
// builds the suffix tree of D̂ — the concatenation of all patterns with a
// separator symbol after each — plus:
//
//   - Weiner-link colors for the nearest-colored-ancestors structure that
//     drives the ExtendLeft procedure (Step 1B),
//   - the pattern-prefix tables (M1, H) behind Step 2A's B[i] = longest
//     pattern prefix at each position, and
//   - the pattern-end marks (PE, RPE, minPat) behind Step 2B's
//     M[i] = longest full pattern at each position.
//
// Text matching runs in three steps exactly as in the paper: Step 1A finds
// the dictionary-substring match S[i] at one anchor per window by a
// fingerprint-guided separator-tree descent (separator.go; a suffix-array
// binary search is the AnchorSA ablation); Step 1B extends it to every
// position of the window right-to-left via nearest colored ancestors
// (ExtendLeft); Step 2 converts S[i] into B[i] and M[i] by O(1) table
// lookups. The output is Monte Carlo; the §3.4 checker (checker.go) makes
// the whole pipeline Las Vegas.
package core

import (
	"repro/internal/colorednca"
	"repro/internal/fingerprint"
	"repro/internal/lca"
	"repro/internal/pram"
	"repro/internal/rmq"
	"repro/internal/suffixtree"
)

// Sep is the dictionary separator symbol; it is outside the byte alphabet so
// no text can ever match across pattern boundaries.
const Sep int32 = 256

// NCAVariant selects the nearest-colored-ancestors structure used by
// ExtendLeft.
type NCAVariant int

const (
	// NCAAuto uses the naive O(1)-query tables when the alphabet observed
	// in the dictionary is small (the paper's constant-alphabet Theorem
	// 3.1 regime) and the van Emde Boas variant otherwise (Theorem 3.2).
	NCAAuto NCAVariant = iota
	// NCANaive forces the O(n·|C|)-preprocessing O(1)-query structure.
	NCANaive
	// NCAImproved forces the O(n+C)-size O(log log n)-query structure.
	NCAImproved
)

// autoNaiveThreshold is the alphabet size up to which NCAAuto picks the
// naive tables (the paper's "constant-sized alphabet" regime).
const autoNaiveThreshold = 8

// Options configure preprocessing.
type Options struct {
	Seed    uint64         // fingerprint seed; 0 means 1
	NCA     NCAVariant     // nearest-colored-ancestor structure choice
	Anchor  AnchorStrategy // Step 1A locate mechanism (default: separator tree)
	WindowL int            // Step 1 window length; 0 = auto, see step1.go
}

// Dictionary is a preprocessed pattern dictionary.
type Dictionary struct {
	Patterns [][]byte
	D        int // total pattern length (the paper's d)

	dhat      []int32 // P_0 · Sep · P_1 · Sep · ... · P_{k-1} · Sep
	starts    []int32 // start offset of each pattern in dhat
	patLen    []int32
	maxPatLen int32 // longest pattern length (the streaming halo bound)

	st       *suffixtree.Tree
	lift     *lca.Lifting // ancestor-at-string-depth queries
	weiner   map[int64]int32
	ncaImpr  *colorednca.Improved
	ncaNaiv  *colorednca.Naive
	useNaive bool

	// Step 2A tables (see step2.go for the exact invariants).
	m1 []int32 // m1[v] = max pattern length with start-leaf in subtree(v)
	h  []int32 // h[v]  = max over ancestors w (incl v) of min(m1[w], depth(w))

	// Step 2B tables.
	minPat   []int32 // min pattern length with start-leaf in subtree(v); -1 if none
	minPatID []int32 // a pattern achieving minPat[v]
	rpe      []int64 // root-path max of packed (marked depth, pattern id)
	fullAtH  []int64 // per node u: longest full pattern that is a prefix of
	// the length-H[u] prefix of σ(u), packed (len, pat); -1 if none

	anchor  AnchorStrategy
	sep     *sepTree // separator tree (nil when AnchorSA)
	sigma   int      // number of distinct byte values in the dictionary
	seed    uint64
	hasher  *fingerprint.Hasher
	fpDict  *fingerprint.Table
	windowL int
}

// Seed returns the current fingerprint seed (after any reseeds).
func (d *Dictionary) Seed() uint64 { return d.seed }

// WindowLen returns the Step 1 window length the dictionary matches with.
func (d *Dictionary) WindowLen() int { return d.windowL }

// Anchor returns the Step 1A locate strategy the dictionary was built with.
func (d *Dictionary) Anchor() AnchorStrategy { return d.anchor }

// UseNaiveNCA reports whether the naive nearest-colored-ancestor tables are
// in use (as opposed to the van Emde Boas variant).
func (d *Dictionary) UseNaiveNCA() bool { return d.useNaive }

const packShift = 31

func packLenPat(length int32, pat int32) int64 {
	return int64(length)<<packShift | int64(pat)
}

func unpackLenPat(v int64) (length, pat int32) {
	return int32(v >> packShift), int32(v & (1<<packShift - 1))
}

// Preprocess builds the dictionary structures. Every pattern must be
// non-empty.
func Preprocess(m *pram.Machine, patterns [][]byte, opts Options) *Dictionary {
	if len(patterns) == 0 {
		panic("core: empty dictionary")
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	d := &Dictionary{Patterns: patterns, seed: opts.Seed}
	total := 0
	seen := [256]bool{}
	for _, p := range patterns {
		if len(p) == 0 {
			panic("core: empty pattern")
		}
		total += len(p)
		for _, c := range p {
			seen[c] = true
		}
	}
	for _, s := range seen {
		if s {
			d.sigma++
		}
	}
	d.D = total
	d.dhat = make([]int32, 0, total+len(patterns))
	d.starts = make([]int32, len(patterns))
	d.patLen = make([]int32, len(patterns))
	for k, p := range patterns {
		d.starts[k] = int32(len(d.dhat))
		d.patLen[k] = int32(len(p))
		if d.patLen[k] > d.maxPatLen {
			d.maxPatLen = d.patLen[k]
		}
		for _, c := range p {
			d.dhat = append(d.dhat, int32(c))
		}
		d.dhat = append(d.dhat, Sep)
	}
	m.Account(int64(len(d.dhat)), 1)

	d.st = suffixtree.BuildInts(m, d.dhat)
	d.buildLifting(m)
	d.buildWeiner(m, opts.NCA)
	d.buildStep2Tables(m)
	d.anchor = opts.Anchor
	if d.anchor == AnchorSeparator {
		d.sep = d.buildSeparator(m)
	}

	d.hasher = fingerprint.NewHasher(opts.Seed, d.st.AugLen())
	d.fpDict = d.hasher.NewTableInts(m, augSlice(d.st))

	d.windowL = opts.WindowL
	if d.windowL <= 0 {
		lg := 1
		for 1<<lg < len(d.dhat) {
			lg++
		}
		d.windowL = lg * lg
	}
	return d
}

// augSlice materializes the augmented symbol string of the tree (dhat plus
// sentinel) for fingerprinting. Symbol values: bytes+1, Sep+1, sentinel 0 —
// the same shift the text side applies, so cross tables compare correctly.
func augSlice(st *suffixtree.Tree) []int32 {
	n := st.AugLen()
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = st.AugAt(int32(i))
	}
	return out
}

func (d *Dictionary) buildLifting(m *pram.Machine) {
	st := d.st
	weights := make([]int64, st.NumNodes)
	m.ParallelFor(st.NumNodes, func(v int) { weights[v] = int64(st.StrDepth[v]) })
	d.lift = lca.NewLifting(m, st.Parent, weights)
}

// buildWeiner colors each node w with every symbol a such that an explicit
// node with path label a·σ(w) exists, and records that node as the Weiner
// target. Suffix links provide the map: v with first label symbol a links
// to w, which is precisely "w has an incoming Weiner link by a".
func (d *Dictionary) buildWeiner(m *pram.Machine, variant NCAVariant) {
	st := d.st
	links := st.SuffixLinks(m)
	type entry struct {
		w int32
		a int32
		v int32
	}
	entries := make([]entry, st.NumNodes)
	m.ParallelFor(st.NumNodes, func(v int) {
		entries[v] = entry{-1, -1, -1}
		if v == st.Root {
			return
		}
		w := links[v]
		if w < 0 {
			return
		}
		a := st.AugAt(st.Witness(v)) // first symbol of σ(v), aug space
		entries[v] = entry{w, a, int32(v)}
	})
	d.weiner = make(map[int64]int32, st.NumNodes)
	colors := make([]colorednca.Colored, 0, st.NumNodes)
	m.Account(int64(st.NumNodes), 1) // sequential map fill, linear work
	for _, e := range entries {
		if e.w < 0 {
			continue
		}
		key := int64(e.w)<<9 | int64(e.a)
		if old, ok := d.weiner[key]; ok {
			// Two explicit nodes with label a·σ(w) cannot exist; keep the
			// first deterministically (they would be identical anyway).
			_ = old
			continue
		}
		d.weiner[key] = e.v
		colors = append(colors, colorednca.Colored{Node: int(e.w), Color: e.a})
	}
	d.useNaive = variant == NCANaive || (variant == NCAAuto && d.sigma <= autoNaiveThreshold)
	if d.useNaive {
		d.ncaNaiv = colorednca.NewNaive(m, st.Topo, colors)
	} else {
		d.ncaImpr = colorednca.NewImproved(m, st.Topo, st.Tour, colors)
	}
}

// ncaQueryCost is the PRAM cost charged per nearest-colored-ancestor query:
// 1 for the naive tables, ceil(log2 log2 d) for the van Emde Boas variant.
func (d *Dictionary) ncaQueryCost() int64 {
	if d.useNaive {
		return 1
	}
	lg := 1
	for 1<<lg < d.st.AugLen() {
		lg++
	}
	llg := int64(1)
	for 1<<llg < lg {
		llg++
	}
	return llg
}

// findColored returns the nearest ancestor of v (inclusive) colored a.
func (d *Dictionary) findColored(v int, a int32) int {
	if d.useNaive {
		return d.ncaNaiv.Find(v, a)
	}
	return d.ncaImpr.Find(v, a)
}

// weinerTarget returns the node with path label a·σ(w), which exists
// whenever w carries color a.
func (d *Dictionary) weinerTarget(w int, a int32) int32 {
	return d.weiner[int64(w)<<9|int64(a)]
}

// buildStep2Tables precomputes M1/H (pattern-prefix queries) and
// minPat/RPE (pattern-end queries). See step2.go for how queries use them.
func (d *Dictionary) buildStep2Tables(m *pram.Machine) {
	st := d.st
	n1 := st.NumLeaves()
	// Per SA rank: pattern length if that suffix is a pattern start.
	isStart := make([]int64, n1) // max-rmq source: -1 or pattern length
	minSrc := make([]int64, n1)  // min-rmq source: +inf or packed (len,pat)
	const inf = int64(1) << 62
	m.ParallelFor(n1, func(r int) {
		isStart[r] = -1
		minSrc[r] = inf
	})
	m.ParallelFor(len(d.starts), func(k int) {
		r := st.Rank[d.starts[k]]
		isStart[r] = int64(d.patLen[k])
		minSrc[r] = packLenPat(d.patLen[k], int32(k))
	})
	maxT := rmq.NewMax(m, isStart)
	minT := rmq.NewMin(m, minSrc)

	d.m1 = make([]int32, st.NumNodes)
	d.minPat = make([]int32, st.NumNodes)
	d.minPatID = make([]int32, st.NumNodes)
	pe := make([]int64, st.NumNodes) // packed (depth, pat) of pattern-end marks
	m.ParallelFor(st.NumNodes, func(v int) {
		lo, hi := int(st.Lo[v]), int(st.Hi[v])
		if mx := maxT.Query(lo, hi); mx >= 0 {
			d.m1[v] = int32(mx)
		} else {
			d.m1[v] = 0
		}
		if mn := minT.Query(lo, hi); mn < inf {
			l, p := unpackLenPat(mn)
			d.minPat[v] = l
			d.minPatID[v] = p
		} else {
			d.minPat[v] = -1
			d.minPatID[v] = -1
		}
		pe[v] = -1
	})
	// Pattern-end marks: for each pattern, the ancestor of its start leaf
	// at string depth exactly |P_k| (if explicit).
	peCells := pram.NewCellsFilled(st.NumNodes, -1)
	logd := int64(1)
	for 1<<logd < st.NumNodes {
		logd++
	}
	m.ParallelForCost(len(d.starts), logd, func(k int) {
		leaf := int(st.LeafID[d.starts[k]])
		z := d.lift.ShallowestWithWeightAtLeast(leaf, int64(d.patLen[k]))
		if z >= 0 && st.StrDepth[z] == d.patLen[k] {
			peCells.WriteMax(z, packLenPat(d.patLen[k], int32(k)))
		}
	})
	m.ParallelFor(st.NumNodes, func(v int) { pe[v] = peCells.Read(v) })

	// H = root-path max of g(v) = min(m1[v], depth(v));
	// RPE = root-path max of pe. Both via parent-pointer doubling.
	g := make([]int64, st.NumNodes)
	m.ParallelFor(st.NumNodes, func(v int) {
		g[v] = int64(min32(d.m1[v], st.StrDepth[v]))
	})
	hh := rootPathMax(m, st.Parent, g)
	d.h = make([]int32, st.NumNodes)
	m.ParallelFor(st.NumNodes, func(v int) { d.h[v] = int32(hh[v]) })
	d.rpe = rootPathMax(m, st.Parent, pe)

	// fullAtH[u]: resolve, once per node, the longest full pattern inside
	// the length-H[u] prefix of σ(u), so text queries in the ancestor case
	// are O(1). One O(log d) level-ancestor query per node (preprocessing
	// only).
	d.fullAtH = make([]int64, st.NumNodes)
	m.ParallelForCost(st.NumNodes, logd, func(u int) {
		h := d.h[u]
		if h == 0 {
			d.fullAtH[u] = -1
			return
		}
		z2 := d.lift.ShallowestWithWeightAtLeast(u, int64(h))
		packed := int64(-1)
		if u2 := st.Parent[z2]; u2 >= 0 {
			packed = d.rpe[u2]
		}
		if d.minPat[z2] == h {
			if cand := packLenPat(h, d.minPatID[z2]); cand > packed {
				packed = cand
			}
		}
		d.fullAtH[u] = packed
	})
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// rootPathMax returns, for every node, the maximum of val over the node's
// ancestors including itself. Parent-pointer doubling: O(log n) rounds,
// O(n log n) work (documented preprocessing log factor, DESIGN.md §4).
func rootPathMax(m *pram.Machine, parent []int, val []int64) []int64 {
	n := len(parent)
	cur := make([]int64, n)
	anc := make([]int, n)
	m.ParallelFor(n, func(v int) {
		cur[v] = val[v]
		if parent[v] < 0 {
			anc[v] = v
		} else {
			anc[v] = parent[v]
		}
	})
	nxt := make([]int64, n)
	anc2 := make([]int, n)
	for {
		changed := pram.NewCells(1)
		m.ParallelFor(n, func(v int) {
			nxt[v] = cur[v]
			if a := anc[v]; a != v {
				if cur[a] > nxt[v] {
					nxt[v] = cur[a]
				}
			}
			anc2[v] = anc[anc[v]]
			if anc2[v] != anc[v] {
				changed.Write(0, 1)
			}
		})
		cur, nxt = nxt, cur
		anc, anc2 = anc2, anc
		if changed.Read(0) == 0 {
			return cur
		}
	}
}

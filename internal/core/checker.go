package core

import (
	"fmt"

	"repro/internal/fingerprint"
	"repro/internal/par"
	"repro/internal/pram"
)

// Check implements the paper's §3.4 output checker. It verifies that every
// claimed match in matches is a genuine occurrence of its pattern in the
// text, using only O(n) work and O(log n) time: per-position O(1) character
// checks, a prefix-maximum to find dominating matches, and O(1) exact
// (suffix-tree) LCP queries between dictionary substrings for the pairwise
// consistency of overlapping dominating matches. Lemma 3.4: if all tests
// pass, the claimed matches equal the text wherever they claim to.
//
// The checker is deterministic — it never touches fingerprints — which is
// what turns the Monte Carlo matcher into a Las Vegas algorithm.
func (d *Dictionary) Check(m *pram.Machine, text []byte, matches []Match) bool {
	n := len(text)
	if len(matches) != n {
		return false
	}
	if n == 0 {
		return true
	}
	ok := pram.NewCellsFilled(1, 1)
	// Effective match length: undefined positions become length-1
	// singletons T[i], exactly as the paper prescribes.
	lenAt := m.GetInt64s(n)
	defer m.PutInt64s(lenAt)
	m.ParallelFor(n, func(i int) {
		mt := matches[i]
		switch {
		case mt.Length < 0 || (mt.Length == 0) != (mt.PatternID < 0):
			ok.Write(0, 0)
			lenAt[i] = 1
		case mt.Length == 0:
			lenAt[i] = 1
		default:
			if int(mt.PatternID) >= len(d.Patterns) ||
				int(mt.Length) != len(d.Patterns[mt.PatternID]) ||
				i+int(mt.Length) > n {
				ok.Write(0, 0)
				lenAt[i] = 1
				return
			}
			lenAt[i] = int64(mt.Length)
			// First-character test.
			if d.Patterns[mt.PatternID][0] != text[i] {
				ok.Write(0, 0)
			}
		}
	})
	if ok.Read(0) == 0 {
		return false
	}
	// reach[i] = i + lenAt[i]; prefix maxima identify dominating positions
	// and a dominator for each dominated one.
	pmax := m.GetInt64s(n)
	defer m.PutInt64s(pmax)
	m.ParallelFor(n, func(i int) { pmax[i] = packLenPat(int32(int64(i)+lenAt[i]), int32(i)) })
	par.PrefixMaxLinear(m, pmax)
	dominated := m.GetBools(n)
	defer m.PutBools(dominated)
	m.ParallelFor(n, func(j int) {
		if j == 0 {
			return
		}
		bestReach, bestPos := unpackLenPat(pmax[j-1])
		if int64(bestReach) >= int64(j)+lenAt[j] {
			dominated[j] = true
			// Consistency with the dominator i = bestPos: the claim at j
			// must agree with the overlapping content of the claim at i.
			i := int(bestPos)
			if !claimsAgree(d, text, matches, i, j, int(lenAt[j])) {
				ok.Write(0, 0)
			}
		}
	})
	if ok.Read(0) == 0 {
		return false
	}
	// Pairwise consistency of consecutive dominating matches.
	doms := par.Pack(m, n, func(i int) bool { return !dominated[i] })
	m.ParallelFor(max(0, len(doms)-1), func(k int) {
		i, j := doms[k], doms[k+1]
		overlap := int(int64(i) + lenAt[i] - int64(j))
		if overlap <= 0 {
			return
		}
		if !claimsAgree(d, text, matches, i, j, overlap) {
			ok.Write(0, 0)
		}
	})
	return ok.Read(0) == 1
}

// claimsAgree verifies that the claim at position j agrees with the claim
// at position i (i < j) over length overlap: claim_i[j-i : j-i+overlap] ==
// claim_j[0 : overlap]. Dictionary-vs-dictionary comparisons use exact
// suffix-tree LCP queries; singletons compare one character.
func claimsAgree(d *Dictionary, text []byte, matches []Match, i, j, overlap int) bool {
	off := int32(j - i)
	mi := matches[i]
	if mi.Length == 0 {
		// A singleton can only dominate the position itself; overlap beyond
		// it is impossible.
		return overlap <= 1 && i == j
	}
	pi := d.starts[mi.PatternID]
	mj := matches[j]
	if mj.Length == 0 {
		// claim_j is the singleton T[j].
		return byteAt(d, pi+off) == int32(text[j])
	}
	pj := d.starts[mj.PatternID]
	return d.st.LCPSuffixes(pi+off, pj) >= int32(overlap)
}

// byteAt reads D̂ at position p (original symbol space).
func byteAt(d *Dictionary, p int32) int32 { return d.dhat[p] }

// MatchLasVegas runs MatchText and verifies the output with Check,
// re-running with fresh fingerprint seeds until the check passes (the Las
// Vegas loop). It returns the verified matches and the number of attempts
// used. With 61-bit fingerprints a retry is essentially impossible; the
// loop exists for fidelity to the paper and is exercised in tests through
// fault injection.
func (d *Dictionary) MatchLasVegas(m *pram.Machine, text []byte) ([]Match, int) {
	const maxAttempts = 8
	for attempt := 1; ; attempt++ {
		matches := d.MatchText(m, text)
		if d.Check(m, text, matches) {
			return matches, attempt
		}
		if attempt == maxAttempts {
			panic(fmt.Sprintf("core: %d consecutive fingerprint failures — input adversarial beyond design margin", maxAttempts))
		}
		d.Reseed(m, d.seed+uint64(attempt)*0x9e3779b9)
	}
}

// Reseed replaces the fingerprint randomness (hasher and dictionary table)
// without rebuilding any deterministic structure.
func (d *Dictionary) Reseed(m *pram.Machine, seed uint64) {
	d.seed = seed
	d.hasher = fingerprint.NewHasher(seed, d.st.AugLen())
	d.fpDict = d.hasher.NewTableInts(m, augSlice(d.st))
}

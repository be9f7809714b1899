// Package fingerprint implements Karp–Rabin polynomial fingerprints (the
// paper's citation [17]) over the Mersenne prime 2^61-1. Fingerprints are
// what make the paper's algorithms randomized: string comparisons in the
// suffix-tree descent (Step 1A) and the ExtendLeft procedure compare
// fingerprints in O(1), and are correct unless a fingerprint collision
// occurs — an event of probability <= len/(2^61-1) per comparison, which the
// Las Vegas checker (§3.4) catches and retries.
package fingerprint

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/chaos"
	"repro/internal/pram"
)

// Prime is the fingerprint field modulus, the Mersenne prime 2^61 - 1.
const Prime uint64 = 1<<61 - 1

// Hasher fixes a random base. All tables built from one Hasher are mutually
// comparable (text vs dictionary comparisons need a shared base).
type Hasher struct {
	base uint64
	pow  []uint64 // pow[i] = base^i, grown on demand at construction time
}

// NewHasher draws a uniformly random base from the seeded stream. maxLen
// bounds the longest string that will be fingerprinted.
func NewHasher(seed uint64, maxLen int) *Hasher {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	base := rng.Uint64N(Prime-3) + 2 // uniform in [2, Prime-2]
	return newHasherWithBase(base, maxLen)
}

func newHasherWithBase(base uint64, maxLen int) *Hasher {
	h := &Hasher{base: base, pow: make([]uint64, maxLen+1)}
	h.pow[0] = 1
	for i := 1; i <= maxLen; i++ {
		h.pow[i] = mulmod(h.pow[i-1], base)
	}
	return h
}

// WithCapacity returns a hasher with the same base whose power table covers
// strings up to maxLen (the receiver itself if it is already large enough).
// Tables built from the two hashers are mutually comparable, which is how a
// per-query text table joins a preprocessed dictionary table.
func (h *Hasher) WithCapacity(maxLen int) *Hasher {
	if maxLen <= h.MaxLen() {
		return h
	}
	return newHasherWithBase(h.base, maxLen)
}

// Base returns the random base (exported for experiment logging).
func (h *Hasher) Base() uint64 { return h.base }

// MaxLen returns the longest supported string length.
func (h *Hasher) MaxLen() int { return len(h.pow) - 1 }

// mulmod returns a*b mod 2^61-1 using the Mersenne reduction.
func mulmod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = hi*8*2^61 + lo; fold twice.
	sum := (lo & Prime) + (lo >> 61) + hi<<3
	sum = (sum & Prime) + (sum >> 61)
	if sum >= Prime {
		sum -= Prime
	}
	return sum
}

func addmod(a, b uint64) uint64 {
	s := a + b
	if s >= Prime {
		s -= Prime
	}
	return s
}

func submod(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + Prime - b
}

// Table holds prefix fingerprints of one string, answering substring
// fingerprints in O(1).
type Table struct {
	h *Hasher
	// pre[i] = fingerprint of s[0:i]
	pre []uint64
	n   int
}

// NewTable builds prefix fingerprints of s in parallel: per-block local
// hashes followed by a doubling combine over blocks (work O(n), depth
// O(log n)).
func (h *Hasher) NewTable(m *pram.Machine, s []byte) *Table {
	n := len(s)
	if n > h.MaxLen() {
		panic("fingerprint: string longer than hasher maxLen")
	}
	t := &Table{h: h, pre: make([]uint64, n+1), n: n}
	if n == 0 {
		return t
	}
	const block = 256
	nb := (n + block - 1) / block
	// Local prefix hashes within each block.
	m.ParallelForCost(nb, block, func(b int) {
		lo, hi := b*block, (b+1)*block
		if hi > n {
			hi = n
		}
		var acc uint64
		for i := lo; i < hi; i++ {
			acc = addmod(mulmod(acc, h.base), uint64(s[i])+1)
			t.pre[i+1] = acc
		}
	})
	combineBlocks(m, h, t.pre, n, nb, block)
	return t
}

// combineBlocks turns per-block local prefix hashes into global ones with a
// Hillis–Steele scan over block summaries (associative combine:
// concat(h1, h2, len2) = h1*base^len2 + h2).
func combineBlocks(m *pram.Machine, h *Hasher, pre []uint64, n, nb, block int) {
	type seg struct {
		fp  uint64
		len int
	}
	cur := make([]seg, nb)
	m.ParallelFor(nb, func(b int) {
		hi := (b + 1) * block
		if hi > n {
			hi = n
		}
		cur[b] = seg{pre[hi], hi - b*block}
	})
	next := make([]seg, nb)
	for stride := 1; stride < nb; stride *= 2 {
		st := stride
		m.ParallelFor(nb, func(b int) {
			if b >= st {
				l := cur[b-st]
				r := cur[b]
				next[b] = seg{addmod(mulmod(l.fp, h.pow[r.len]), r.fp), l.len + r.len}
			} else {
				next[b] = cur[b]
			}
		})
		cur, next = next, cur
	}
	// cur[b] is now the hash of s[0 : end of block b]; rewrite each block's
	// entries onto the global prefix.
	m.ParallelForCost(nb, int64(block), func(b int) {
		if b == 0 {
			return
		}
		lo, hi := b*block, (b+1)*block
		if hi > n {
			hi = n
		}
		carry := cur[b-1].fp
		for i := lo; i < hi; i++ {
			local := pre[i+1]
			pre[i+1] = addmod(mulmod(carry, h.pow[i+1-lo]), local)
		}
	})
}

// NewTableSequential builds the table with the plain linear recurrence.
func (h *Hasher) NewTableSequential(s []byte) *Table {
	n := len(s)
	if n > h.MaxLen() {
		panic("fingerprint: string longer than hasher maxLen")
	}
	t := &Table{h: h, pre: make([]uint64, n+1), n: n}
	for i := 0; i < n; i++ {
		t.pre[i+1] = addmod(mulmod(t.pre[i], h.base), uint64(s[i])+1)
	}
	return t
}

// NewTableInts builds prefix fingerprints over an int32 symbol string
// (symbols >= 0). A symbol x hashes exactly like the byte value x, so a
// table over text bytes is directly comparable with a table over a
// dictionary that uses symbols 256+ for separators.
func (h *Hasher) NewTableInts(m *pram.Machine, s []int32) *Table {
	n := len(s)
	if n > h.MaxLen() {
		panic("fingerprint: string longer than hasher maxLen")
	}
	t := &Table{h: h, pre: make([]uint64, n+1), n: n}
	if n == 0 {
		return t
	}
	const block = 256
	nb := (n + block - 1) / block
	m.ParallelForCost(nb, block, func(b int) {
		lo, hi := b*block, (b+1)*block
		if hi > n {
			hi = n
		}
		var acc uint64
		for i := lo; i < hi; i++ {
			acc = addmod(mulmod(acc, h.base), uint64(s[i])+1)
			t.pre[i+1] = acc
		}
	})
	combineBlocks(m, h, t.pre, n, nb, block)
	return t
}

// Len returns the length of the fingerprinted string.
func (t *Table) Len() int { return t.n }

// Substring returns the fingerprint of s[i:j] (half-open). i <= j required.
func (t *Table) Substring(i, j int) uint64 {
	if i > j || i < 0 || j > t.n {
		panic("fingerprint: bad substring range")
	}
	return submod(t.pre[j], mulmod(t.pre[i], t.h.pow[j-i]))
}

// Equal reports whether s[i:i+l] and the other table's string at [j:j+l]
// have equal fingerprints (Monte Carlo equality; both tables must use the
// same base, i.e. come from the same hasher or WithCapacity extensions of
// it).
func (t *Table) Equal(i int, other *Table, j, l int) bool {
	if t.h.base != other.h.base {
		panic("fingerprint: tables from different hashers")
	}
	eq := t.Substring(i, i+l) == other.Substring(j, j+l)
	if !eq && chaos.Fire(chaos.FPCollide) {
		// Forced fingerprint collision (chaos builds only; in production
		// builds the hook is a constant false and this branch is compiled
		// out). Lying "equal" here is exactly what a natural 61-bit
		// collision would do: the Monte Carlo matcher goes wrong and the
		// deterministic §3.4 checker must catch it and trigger a reseed.
		return true
	}
	return eq
}

// Concat returns the fingerprint of the concatenation xy given fp(x), fp(y)
// and len(y).
func (h *Hasher) Concat(fpX, fpY uint64, lenY int) uint64 {
	return addmod(mulmod(fpX, h.pow[lenY]), fpY)
}

// Char returns the fingerprint of the single byte c, so ExtendLeft can form
// fp(c · S) = Concat(Char(c), fp(S), |S|).
func (h *Hasher) Char(c byte) uint64 { return uint64(c) + 1 }

// CollisionBound returns an upper bound on the probability that two distinct
// strings of length <= l collide under a random base: l / (Prime - 1).
func CollisionBound(l int) float64 {
	return float64(l) / float64(Prime-1)
}

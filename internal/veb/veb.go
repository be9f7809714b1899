// Package veb implements a van Emde Boas tree (the paper's Lemma 2.5,
// van Emde Boas–Kaas–Zijlstra): a set over the universe [0, N) supporting
// Insert, Delete, Min, Max, Predecessor and Successor in O(log log N) time.
//
// Clusters are allocated lazily through a map, so space is O(s log log N)
// for s stored keys — the space-efficient variant the paper cites. The
// recursion stops at universes of one machine word, kept as the bits of a
// uint64: that removes the deepest and most numerous levels of nodes, and
// every operation stays O(log log N). The improved nearest-colored-ancestors
// structure (§3.2) keys one of these per color over Euler-tour positions.
package veb

import "math/bits"

// None is returned by queries that have no answer.
const None = -1

// wordBits is the largest universe a leaf holds in its bit set.
const wordBits = 64

// Tree is a van Emde Boas set over [0, universe).
type Tree struct {
	u       int // universe size, a power of two, >= 2
	lowBits uint
	min     int // None when empty
	max     int
	bits    uint64 // a leaf's keys, min and max included (u <= wordBits only)
	summary *Tree
	cluster map[int]*Tree
	size    int // number of stored keys (maintained at the root only)
}

// New returns an empty tree over the universe [0, n). n must be positive.
func New(n int) *Tree {
	if n < 1 {
		panic("veb: universe must be positive")
	}
	u := 2
	for u < n {
		u *= 2
	}
	return newNode(u)
}

func newNode(u int) *Tree {
	t := &Tree{u: u, min: None, max: None}
	if !t.leaf() {
		t.lowBits = uint(bits.Len(uint(u))-1) / 2
	}
	return t
}

// leaf reports whether t keeps its keys in bits rather than in clusters.
func (t *Tree) leaf() bool { return t.u <= wordBits }

func (t *Tree) high(x int) int { return x >> t.lowBits }
func (t *Tree) low(x int) int  { return x & ((1 << t.lowBits) - 1) }
func (t *Tree) index(h, l int) int {
	return h<<t.lowBits | l
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

// Empty reports whether the set is empty.
func (t *Tree) Empty() bool { return t.min == None }

// Min returns the smallest key, or None.
func (t *Tree) Min() int { return t.min }

// Max returns the largest key, or None.
func (t *Tree) Max() int { return t.max }

// Contains reports whether x is in the set.
func (t *Tree) Contains(x int) bool {
	if x < 0 || x >= t.u {
		return false
	}
	for {
		if x == t.min || x == t.max {
			return true
		}
		if t.leaf() {
			return t.bits>>uint(x)&1 == 1
		}
		c := t.cluster[t.high(x)]
		if c == nil {
			return false
		}
		x, t = t.low(x), c
	}
}

// Insert adds x to the set. Inserting a present key is a no-op. x must lie
// in [0, universe).
func (t *Tree) Insert(x int) {
	if x < 0 || x >= t.u {
		panic("veb: key out of universe")
	}
	if t.Contains(x) {
		return
	}
	t.size++
	t.insert(x)
}

func (t *Tree) insert(x int) {
	if t.leaf() {
		t.bits |= 1 << uint(x)
		t.min, t.max = bits.TrailingZeros64(t.bits), bits.Len64(t.bits)-1
		return
	}
	if t.min == None {
		t.min, t.max = x, x
		return
	}
	if x < t.min {
		x, t.min = t.min, x
	}
	h, l := t.high(x), t.low(x)
	c := t.cluster[h]
	if c == nil {
		c = newNode(1 << t.lowBits)
		if t.cluster == nil {
			t.cluster = make(map[int]*Tree)
		}
		t.cluster[h] = c
	}
	if c.min == None {
		if t.summary == nil {
			t.summary = newNode(t.u >> t.lowBits)
		}
		t.summary.insert(h)
	}
	c.insert(l) // O(1) into an empty cluster
	if x > t.max {
		t.max = x
	}
}

// Delete removes x from the set. Removing an absent key is a no-op.
func (t *Tree) Delete(x int) {
	if !t.Contains(x) {
		return
	}
	t.size--
	t.delete(x)
}

func (t *Tree) delete(x int) {
	if t.leaf() {
		t.bits &^= 1 << uint(x)
		if t.bits == 0 {
			t.min, t.max = None, None
		} else {
			t.min, t.max = bits.TrailingZeros64(t.bits), bits.Len64(t.bits)-1
		}
		return
	}
	if t.min == t.max {
		t.min, t.max = None, None
		return
	}
	if x == t.min {
		h := t.summary.min
		x = t.index(h, t.cluster[h].min)
		t.min = x
	}
	h, l := t.high(x), t.low(x)
	c := t.cluster[h]
	c.delete(l)
	if c.min == None {
		delete(t.cluster, h)
		t.summary.delete(h)
		if x == t.max {
			if t.summary.min == None {
				t.max = t.min
			} else {
				sh := t.summary.max
				t.max = t.index(sh, t.cluster[sh].max)
			}
		}
	} else if x == t.max {
		t.max = t.index(h, c.max)
	}
}

// Successor returns the smallest stored key > x, or None. x may be any int.
func (t *Tree) Successor(x int) int {
	if x < 0 {
		return t.min
	}
	if x >= t.u {
		return None
	}
	return t.successor(x)
}

func (t *Tree) successor(x int) int {
	if t.leaf() {
		above := t.bits &^ (1<<uint(x+1) - 1) // at x = 63, 1<<64 is 0 and the mask all ones
		if above == 0 {
			return None
		}
		return bits.TrailingZeros64(above)
	}
	if t.min != None && x < t.min {
		return t.min
	}
	h, l := t.high(x), t.low(x)
	c := t.cluster[h]
	if c != nil && c.max != None && l < c.max {
		return t.index(h, c.successor(l))
	}
	if t.summary == nil {
		return None
	}
	nh := t.summary.successor(h)
	if nh == None {
		return None
	}
	return t.index(nh, t.cluster[nh].min)
}

// Predecessor returns the largest stored key < x, or None.
func (t *Tree) Predecessor(x int) int {
	if x >= t.u {
		return t.max
	}
	if x <= 0 {
		return None
	}
	return t.predecessor(x)
}

func (t *Tree) predecessor(x int) int {
	if t.leaf() {
		below := t.bits & (1<<uint(x) - 1)
		if below == 0 {
			return None
		}
		return bits.Len64(below) - 1
	}
	if t.max != None && x > t.max {
		return t.max
	}
	h, l := t.high(x), t.low(x)
	c := t.cluster[h]
	if c != nil && c.min != None && l > c.min {
		p := c.predecessor(l)
		if p == None {
			// l > c.min guarantees a predecessor within the cluster unless
			// the only smaller element is the cluster min itself.
			p = c.min
		}
		return t.index(h, p)
	}
	var ph int
	if t.summary == nil {
		ph = None
	} else {
		ph = t.summary.predecessor(h)
	}
	if ph == None {
		if t.min != None && x > t.min {
			return t.min
		}
		return None
	}
	return t.index(ph, t.cluster[ph].max)
}

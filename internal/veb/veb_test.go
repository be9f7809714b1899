package veb

import (
	"math/rand/v2"
	"testing"
)

// mirror is a brute-force reference set.
type mirror struct{ in []bool }

func (s *mirror) insert(x int)        { s.in[x] = true }
func (s *mirror) delete(x int)        { s.in[x] = false }
func (s *mirror) contains(x int) bool { return x >= 0 && x < len(s.in) && s.in[x] }
func (s *mirror) min() int {
	for i, v := range s.in {
		if v {
			return i
		}
	}
	return None
}
func (s *mirror) max() int {
	for i := len(s.in) - 1; i >= 0; i-- {
		if s.in[i] {
			return i
		}
	}
	return None
}
func (s *mirror) succ(x int) int {
	for i := x + 1; i < len(s.in); i++ {
		if s.in[i] {
			return i
		}
	}
	return None
}
func (s *mirror) pred(x int) int {
	if x > len(s.in) {
		x = len(s.in)
	}
	for i := x - 1; i >= 0; i-- {
		if s.in[i] {
			return i
		}
	}
	return None
}

func TestVEBRandomOpsAgainstMirror(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for _, universe := range []int{2, 3, 16, 64, 65, 100, 1024, 5000} {
		tree := New(universe)
		ref := &mirror{in: make([]bool, universe)}
		size := 0
		for op := 0; op < 20000; op++ {
			x := rng.IntN(universe)
			switch rng.IntN(3) {
			case 0:
				if !ref.contains(x) {
					size++
				}
				tree.Insert(x)
				ref.insert(x)
			case 1:
				if ref.contains(x) {
					size--
				}
				tree.Delete(x)
				ref.delete(x)
			case 2:
				if tree.Contains(x) != ref.contains(x) {
					t.Fatalf("u=%d Contains(%d) mismatch", universe, x)
				}
				if got, want := tree.Successor(x), ref.succ(x); got != want {
					t.Fatalf("u=%d Successor(%d)=%d want %d", universe, x, got, want)
				}
				if got, want := tree.Predecessor(x), ref.pred(x); got != want {
					t.Fatalf("u=%d Predecessor(%d)=%d want %d", universe, x, got, want)
				}
			}
			if tree.Min() != ref.min() || tree.Max() != ref.max() {
				t.Fatalf("u=%d min/max mismatch: (%d,%d) want (%d,%d)",
					universe, tree.Min(), tree.Max(), ref.min(), ref.max())
			}
			if tree.Len() != size {
				t.Fatalf("u=%d Len=%d want %d", universe, tree.Len(), size)
			}
		}
	}
}

func TestVEBEdgeCases(t *testing.T) {
	tr := New(16)
	if !tr.Empty() || tr.Min() != None || tr.Max() != None {
		t.Fatal("fresh tree not empty")
	}
	if tr.Successor(5) != None || tr.Predecessor(5) != None {
		t.Fatal("queries on empty tree")
	}
	tr.Insert(7)
	tr.Insert(7) // duplicate
	if tr.Len() != 1 {
		t.Fatalf("Len after duplicate insert = %d", tr.Len())
	}
	if tr.Successor(-10) != 7 {
		t.Fatalf("Successor(-10) = %d", tr.Successor(-10))
	}
	if tr.Predecessor(1000) != 7 {
		t.Fatalf("Predecessor(1000) = %d", tr.Predecessor(1000))
	}
	if tr.Successor(1000) != None || tr.Predecessor(-5) != None {
		t.Fatal("out-of-range queries")
	}
	tr.Delete(3) // absent
	if tr.Len() != 1 {
		t.Fatal("delete of absent key changed size")
	}
	tr.Delete(7)
	if !tr.Empty() {
		t.Fatal("tree not empty after deleting only key")
	}
}

func TestVEBSweep(t *testing.T) {
	const u = 512
	tr := New(u)
	for i := 0; i < u; i += 3 {
		tr.Insert(i)
	}
	for x := 0; x < u; x++ {
		wantSucc := ((x / 3) + 1) * 3
		if x < 0 {
			wantSucc = 0
		}
		if wantSucc >= u {
			wantSucc = None
		}
		if got := tr.Successor(x); got != wantSucc {
			t.Fatalf("Successor(%d)=%d want %d", x, got, wantSucc)
		}
	}
}

func TestVEBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestVEBInsertOutOfRangePanics(t *testing.T) {
	tr := New(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(100) did not panic")
		}
	}()
	tr.Insert(100)
}

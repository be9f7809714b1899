package core

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/pram"
	"repro/internal/staticdict"
)

// End-to-end static dictionary compression (§5): parse the text into the
// fewest dictionary words and emit one word reference per phrase. This is
// the "optimal compression with a static dictionary" of the title — the
// compressed form is the reference sequence, and decompression is plain
// concatenation.

// CompressStatic returns the optimal (fewest-references) encoding of text
// as dictionary word indices. The dictionary must have the prefix property
// and contain every symbol of the text as (a prefix of) some word;
// otherwise ErrNoParse or a resolution error is returned.
func (d *Dictionary) CompressStatic(m *pram.Machine, text []byte) ([]int32, error) {
	if len(text) == 0 {
		return nil, nil
	}
	loci := d.substringMatch(m, text)
	maxLen := make([]int32, len(text))
	m.ParallelFor(len(text), func(i int) {
		b, _, _ := d.prefixAt(loci[i])
		maxLen[i] = b
	})
	phrases, err := staticdict.OptimalParse(m, len(text), maxLen)
	if err != nil {
		return nil, err
	}
	refs := make([]int32, len(phrases))
	bad := pram.NewCells(1)
	m.ParallelForCost(len(phrases), d.liftCost(), func(k int) {
		p := phrases[k]
		id := d.WordID(loci[p.Pos], p.Len)
		if id < 0 {
			bad.Write(0, 1)
			return
		}
		refs[k] = id
	})
	if bad.Read(0) != 0 {
		return nil, fmt.Errorf("core: parse produced a non-word phrase — dictionary lacks the prefix property")
	}
	return refs, nil
}

// DecompressStatic expands a reference sequence produced by CompressStatic.
func (d *Dictionary) DecompressStatic(m *pram.Machine, refs []int32) ([]byte, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	// Offsets by prefix sums over word lengths.
	lens := make([]int64, len(refs))
	bad := pram.NewCells(1)
	m.ParallelFor(len(refs), func(k int) {
		r := refs[k]
		if r < 0 || int(r) >= len(d.Patterns) {
			bad.Write(0, 1)
			return
		}
		lens[k] = int64(len(d.Patterns[r]))
	})
	if bad.Read(0) != 0 {
		return nil, fmt.Errorf("core: word reference out of range")
	}
	total := par.ExclusiveScan(m, lens) // lens[k] becomes the output offset
	out := make([]byte, total)
	maxWord := int64(1)
	for _, p := range d.Patterns {
		if int64(len(p)) > maxWord {
			maxWord = int64(len(p))
		}
	}
	m.ParallelForCost(len(refs), maxWord, func(k int) {
		copy(out[lens[k]:], d.Patterns[refs[k]])
	})
	return out, nil
}

// liftCost is the charged cost of one level-ancestor resolution.
func (d *Dictionary) liftCost() int64 {
	lg := int64(1)
	for 1<<lg < d.st.NumNodes {
		lg++
	}
	return lg
}

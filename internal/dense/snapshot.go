package dense

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Snapshot payload codec. The compiled automaton is the one structure in the
// system whose load path must be near-instant — the whole point of persisting
// it is skipping recompilation — so unlike the varint-coded core sections,
// the big arrays here are stored as raw little-endian 32-bit words: decoding
// is a bounds check plus a byte-order copy, no per-element branching.
//
// Layout (all little-endian):
//
//	u32 numStates
//	u32 width
//	u32 numPatterns
//	u32 outLen          (len of outPat)
//	512 bytes           symClass, 256 × u16
//	numStates*width*4   next, as target state ids
//	(numStates+1)*4     outOff, by state id
//	outLen*4            outPat
//
// The stored targets are plain ids, not the row offsets the table holds in
// memory (Restore multiplies them back), in the numbering Compile assigns:
// states with outputs last.
//
// Pattern lengths are not stored: they are re-derived from the patterns
// section of the enclosing snapshot, which also cross-validates numPatterns.

// payloadHeaderBytes is the fixed prefix before the arrays.
const payloadHeaderBytes = 16 + 512

// ErrBadPayload reports a malformed or internally inconsistent dense
// section payload.
var ErrBadPayload = errors.New("dense: bad snapshot payload")

// Encode serializes the automaton into a dense-section payload.
func (a *Automaton) Encode() []byte {
	n := int(a.numStates)
	b := make([]byte, 0, payloadHeaderBytes+4*(len(a.next)+len(a.outOff)+len(a.outPat)))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.numStates))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.width))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.patLen)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(a.outPat)))
	for _, c := range a.symClass {
		b = binary.LittleEndian.AppendUint16(b, c)
	}
	for _, t := range a.next {
		b = binary.LittleEndian.AppendUint32(b, uint32(a.stateID(t)))
	}
	b = appendRaw32(b, a.outOff[:n+1])
	b = appendRaw32(b, a.outPat)
	return b
}

func appendRaw32(b []byte, vals []int32) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// PayloadStats reads the shape counters out of an encoded payload without
// restoring the automaton — what `dictpack inspect` prints. Only the fixed
// header and total length are validated.
func PayloadStats(payload []byte) (Stats, error) {
	var st Stats
	if len(payload) < payloadHeaderBytes {
		return st, fmt.Errorf("%w: %d bytes, need at least %d", ErrBadPayload, len(payload), payloadHeaderBytes)
	}
	numStates := int64(binary.LittleEndian.Uint32(payload))
	width := int64(binary.LittleEndian.Uint32(payload[4:]))
	numPatterns := int64(binary.LittleEndian.Uint32(payload[8:]))
	outLen := int64(binary.LittleEndian.Uint32(payload[12:]))
	want := int64(payloadHeaderBytes) + 4*(numStates*width+numStates+1+outLen)
	if numStates < 1 || width < 1 || width > 257 || int64(len(payload)) != want {
		return st, fmt.Errorf("%w: header claims %d states × %d classes, %d out entries (payload %d bytes, want %d)",
			ErrBadPayload, numStates, width, outLen, len(payload), want)
	}
	st.States = int(numStates)
	st.Alphabet = int(width)
	st.Patterns = int(numPatterns)
	st.OutEntries = int(outLen)
	st.TableBytes = numStates * width * 4
	// In-memory footprint of the restored automaton (matches Stats()): the
	// payload itself is 64 bytes off — no patLen array, 16-byte header.
	st.TotalBytes = 4*(numStates*width+numStates+1+outLen+numPatterns) + 512
	return st, nil
}

// Restore rebuilds an automaton from an encoded payload and the pattern set
// of the enclosing snapshot. Every structural invariant is validated —
// transition targets, output offsets and pattern ids in range, symbol
// classes under width, pattern count matching, a root without outputs — so
// a corrupted or adversarial payload yields an error, never a panic or an
// automaton that can index out of bounds.
//
// A payload whose states with outputs are not all numbered last was written
// before the table stored row offsets. Restore renumbers it once, moving
// those states after the others and keeping each group's order, which on a
// payload in BFS order gives exactly Compile's ids.
func Restore(payload []byte, patterns [][]byte) (*Automaton, error) {
	st, err := PayloadStats(payload)
	if err != nil {
		return nil, err
	}
	if st.Patterns != len(patterns) {
		return nil, fmt.Errorf("%w: payload built for %d patterns, snapshot has %d",
			ErrBadPayload, st.Patterns, len(patterns))
	}
	if st.Alphabet < 2 {
		// Every pattern byte has a class of its own past the absent one.
		return nil, fmt.Errorf("%w: %d symbol classes", ErrBadPayload, st.Alphabet)
	}
	if err := checkTableSize(int64(st.States), int64(st.Alphabet), math.MaxInt64); err != nil {
		return nil, err
	}
	n, w := st.States, st.Alphabet
	a := &Automaton{
		numStates: int32(n),
		patLen:    make([]int32, len(patterns)),
	}
	a.setWidth(int32(w))
	for id, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("%w: empty pattern %d", ErrBadPayload, id)
		}
		a.patLen[id] = int32(len(p))
		if a.patLen[id] > a.maxPatLen {
			a.maxPatLen = a.patLen[id]
		}
	}
	off := 16
	for i := range a.symClass {
		a.symClass[i] = binary.LittleEndian.Uint16(payload[off:])
		if int32(a.symClass[i]) >= a.width {
			return nil, fmt.Errorf("%w: symbol class %d out of range for byte %d", ErrBadPayload, a.symClass[i], i)
		}
		off += 2
	}

	// The output sections first: they say whether the ids need renumbering.
	nextAt := off
	a.outOff, off = readRaw32(payload, nextAt+4*n*w, n+1)
	a.outPat, _ = readRaw32(payload, off, st.OutEntries)
	if a.outOff[0] != 0 || int(a.outOff[n]) != st.OutEntries {
		return nil, fmt.Errorf("%w: output offsets do not span the output list", ErrBadPayload)
	}
	silent := 0 // states without outputs
	for s := 0; s < n; s++ {
		if a.outOff[s] > a.outOff[s+1] {
			return nil, fmt.Errorf("%w: output offsets not monotone at state %d", ErrBadPayload, s)
		}
		if a.outOff[s] == a.outOff[s+1] {
			silent++
		}
	}
	if a.outOff[0] != a.outOff[1] {
		return nil, fmt.Errorf("%w: the root has outputs", ErrBadPayload)
	}
	for _, p := range a.outPat {
		if p < 0 || int(p) >= len(patterns) {
			return nil, fmt.Errorf("%w: output pattern id %d out of range", ErrBadPayload, p)
		}
	}
	a.outStart = int32(silent * w)
	var perm []int32 // old id -> new id; nil when the payload's ids stand
	if a.outOff[silent] != 0 {
		perm, a.outOff, a.outPat = outputsLast(a.outOff, a.outPat)
	}

	a.next = make([]int32, n*w)
	at := nextAt
	for s := 0; s < n; s++ {
		r := s
		if perm != nil {
			r = int(perm[s])
		}
		row := a.next[r*w : (r+1)*w]
		for c := range row {
			t := binary.LittleEndian.Uint32(payload[at:])
			at += 4
			if t >= uint32(n) {
				return nil, fmt.Errorf("%w: transition target %d out of range", ErrBadPayload, t)
			}
			if perm != nil {
				t = uint32(perm[t])
			}
			row[c] = int32(t) * int32(w)
		}
	}
	return a, nil
}

// outputsLast renumbers states so that those with outputs come after those
// without, each group in its old order, and re-lays the output lists in the
// new order. It returns the old-to-new id map and the new lists.
func outputsLast(outOff, outPat []int32) (perm, newOff, newPat []int32) {
	n := len(outOff) - 1
	perm = make([]int32, n)
	order := make([]int32, 0, n) // new id -> old id
	for _, withOutputs := range []bool{false, true} {
		for s := 0; s < n; s++ {
			if (outOff[s] != outOff[s+1]) == withOutputs {
				perm[s] = int32(len(order))
				order = append(order, int32(s))
			}
		}
	}
	newOff = make([]int32, n+1)
	newPat = make([]int32, 0, len(outPat))
	for r, s := range order {
		newOff[r] = int32(len(newPat))
		newPat = append(newPat, outPat[outOff[s]:outOff[s+1]]...)
	}
	newOff[n] = int32(len(newPat))
	return perm, newOff, newPat
}

// readRaw32 copies n little-endian u32s starting at off. Bounds were
// established by PayloadStats' exact-length check.
func readRaw32(b []byte, off, n int) ([]int32, int) {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	return out, off
}

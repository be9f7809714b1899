package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
)

// Load decodes snapshot bytes into a ready-to-match dictionary: the file's
// checks pass (see open), and core.Preprocess builds the dictionary from
// the patterns and options it records, on a sequential machine. A file in
// the §3 form is read the same way; its tables are skipped.
func Load(data []byte) (*core.Dictionary, error) {
	o, err := open(data)
	if err != nil {
		return nil, err
	}
	return o.preprocess(), nil
}

// opened is a snapshot file past the checks every read path makes: framing,
// the file and section CRCs, the header and the patterns. Nothing else —
// no §3 table, no DENSE payload — has been decoded.
type opened struct {
	sections map[byte][]byte
	hdr      *header
	patterns [][]byte // aliasing the file's bytes
}

// open runs those checks. The sections a file must carry follow from its
// header: header and patterns always; in the automaton form no §3 section
// may appear, and a §3-form file from an older writer must carry tree,
// weiner and step2, and separator exactly when its header says so. Its §3
// payloads are CRC-checked and never parsed.
func open(data []byte) (*opened, error) {
	sections, err := splitSections(data)
	if err != nil {
		return nil, err
	}
	for _, id := range []byte{secHeader, secPatterns} {
		if _, ok := sections[id]; !ok {
			return nil, fmt.Errorf("%w: missing section %s", ErrTruncated, sectionNames[id])
		}
	}
	hdr, err := parseHeader(sections[secHeader], len(data))
	if err != nil {
		return nil, err
	}
	tableless := hdr.flags&flagNoTables != 0
	for _, id := range []byte{secTree, secWeiner, secStep2, secSeparator} {
		_, ok := sections[id]
		switch {
		case tableless:
			if ok {
				return nil, fmt.Errorf("%w: %s section in a table-less file", ErrCorrupt, sectionNames[id])
			}
		case id == secSeparator:
			if ok != (hdr.flags&flagHasSeparator != 0) {
				return nil, fmt.Errorf("%w: separator section does not match its header flag", ErrCorrupt)
			}
		case !ok:
			return nil, fmt.Errorf("%w: missing section %s", ErrTruncated, sectionNames[id])
		}
	}
	patterns, err := parsePatterns(sections[secPatterns], hdr)
	if err != nil {
		return nil, err
	}
	return &opened{sections: sections, hdr: hdr, patterns: patterns}, nil
}

// options returns the options the file's dictionary is preprocessed with.
// A §3-form file records them resolved: its NCA structure by name and its
// window length as built, which preprocess to the same dictionary as the
// automatic choices they came from.
func (h *header) options() core.Options {
	o := core.Options{Seed: h.seed, Anchor: core.AnchorStrategy(h.anchor), WindowL: h.windowL}
	if o.Seed == 0 {
		o.Seed = 1
	}
	switch {
	case h.flags&flagUseNaive != 0:
		o.NCA = core.NCANaive
	case h.flags&flagImprovedNCA != 0, h.flags&flagNoTables == 0:
		o.NCA = core.NCAImproved
	}
	return o
}

// preprocess builds the file's dictionary from its patterns (open has
// checked there is at least one, none empty) and options.
func (o *opened) preprocess() *core.Dictionary {
	return core.Preprocess(pram.NewSequential(), o.patterns, o.hdr.options())
}

// automaton restores the file's DENSE section, nil when it has none.
func (o *opened) automaton() (*dense.Automaton, error) {
	payload, ok := o.sections[secDense]
	if !ok {
		return nil, nil
	}
	a, err := dense.Restore(payload, o.patterns)
	if err != nil {
		return nil, fmt.Errorf("%w: dense section: %v", ErrCorrupt, err)
	}
	return a, nil
}

// header carries the validated section counts.
type header struct {
	seed                 uint64
	anchor, windowL      int
	flags                uint64
	numPatterns          int
	patternBytes         int
	numNodes, numLeaves  int
	weinerCount, sepData int
}

// splitSections verifies magic, version, the whole-file CRC and each
// section's CRC, returning the payload of each section. Sections must appear
// in their defined order, each at most once. Which sections a file must
// carry is open's to check: it depends on the header.
func splitSections(data []byte) (map[byte][]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, reader version %d", ErrVersion, v, Version)
	}
	if len(data) < len(magic)+8 {
		return nil, fmt.Errorf("%w: missing file checksum", ErrTruncated)
	}
	body, file := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != file {
		return nil, fmt.Errorf("%w: file checksum mismatch", ErrCorrupt)
	}

	sections := make(map[byte][]byte, 8)
	rest := body[len(magic)+4:]
	lastID := byte(0)
	for len(rest) > 0 {
		id := rest[0]
		name := sectionNames[id]
		if name == "" {
			// A section kind from a future writer. Its framing and CRC are
			// still verified — same layout for every section — and the
			// payload is then skipped, so adding sections never strands old
			// readers.
			name = fmt.Sprintf("unknown(%d)", id)
		}
		if id <= lastID {
			return nil, fmt.Errorf("%w: section %s out of order", ErrCorrupt, name)
		}
		lastID = id
		plen, n := binary.Uvarint(rest[1:])
		if n <= 0 || plen > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: section %s length", ErrTruncated, name)
		}
		rest = rest[1+n:]
		if uint64(len(rest)) < plen+4 {
			return nil, fmt.Errorf("%w: section %s payload", ErrTruncated, name)
		}
		payload := rest[:plen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[plen:]) {
			return nil, fmt.Errorf("%w: section %s checksum mismatch", ErrCorrupt, name)
		}
		if sectionNames[id] != "" {
			sections[id] = payload
		}
		rest = rest[plen+4:]
	}
	return sections, nil
}

// parseHeader decodes and bounds the counts. fileLen is the global
// allocation bound: every count refers to data that costs at least one byte
// per element somewhere in the file, so any count beyond fileLen is
// impossible and is rejected before anything is allocated from it.
func parseHeader(b []byte, fileLen int) (*header, error) {
	r := &creader{b: b}
	h := &header{}
	h.seed = r.uvarint()
	h.anchor = r.count(fileLen)
	h.windowL = r.count(math.MaxInt32)
	h.flags = r.uvarint()
	h.numPatterns = r.count(fileLen)
	h.patternBytes = r.count(fileLen)
	h.numNodes = r.count(fileLen)
	h.numLeaves = r.count(fileLen)
	h.weinerCount = r.count(fileLen)
	h.sepData = r.count(fileLen)
	if r.err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, r.err)
	}
	if h.numPatterns == 0 {
		return nil, fmt.Errorf("%w: header: no patterns", ErrCorrupt)
	}
	if h.anchor != int(core.AnchorSeparator) && h.anchor != int(core.AnchorSA) {
		return nil, fmt.Errorf("%w: header: anchor strategy %d unknown", ErrCorrupt, h.anchor)
	}
	if h.flags&flagNoTables != 0 {
		if h.numNodes != 0 || h.numLeaves != 0 || h.weinerCount != 0 || h.sepData != 0 || h.flags&flagHasSeparator != 0 {
			return nil, fmt.Errorf("%w: header: table counts in a table-less file", ErrCorrupt)
		}
		if h.flags&(flagUseNaive|flagImprovedNCA) == flagUseNaive|flagImprovedNCA {
			return nil, fmt.Errorf("%w: header: two NCA variants", ErrCorrupt)
		}
		return h, nil
	}
	// A §3-form file: its tables are never decoded, but its header must
	// still describe a dictionary the patterns could have built.
	if h.flags&flagImprovedNCA != 0 {
		return nil, fmt.Errorf("%w: header: NCA variant flag outside a table-less file", ErrCorrupt)
	}
	if h.windowL < 1 {
		return nil, fmt.Errorf("%w: header: window length %d invalid", ErrCorrupt, h.windowL)
	}
	if h.numLeaves != h.patternBytes+h.numPatterns+1 {
		return nil, fmt.Errorf("%w: header: leaf count %d inconsistent with pattern bytes", ErrCorrupt, h.numLeaves)
	}
	if h.numNodes < 1 || h.numNodes > 2*h.numLeaves {
		return nil, fmt.Errorf("%w: header: node count %d out of range", ErrCorrupt, h.numNodes)
	}
	return h, nil
}

func parsePatterns(b []byte, h *header) ([][]byte, error) {
	r := &creader{b: b}
	lens := make([]int, h.numPatterns)
	total := 0
	for i := range lens {
		lens[i] = r.count(h.patternBytes)
		total += lens[i]
	}
	if r.err != nil || total != h.patternBytes {
		return nil, fmt.Errorf("%w: patterns: length table", ErrCorrupt)
	}
	patterns := make([][]byte, h.numPatterns)
	for i, l := range lens {
		if l == 0 {
			return nil, fmt.Errorf("%w: patterns: pattern %d is empty", ErrCorrupt, i)
		}
		p := r.bytes(l)
		if r.err != nil {
			return nil, fmt.Errorf("%w: patterns: bytes", ErrTruncated)
		}
		patterns[i] = p
	}
	if r.rem() != 0 {
		return nil, fmt.Errorf("%w: patterns: trailing bytes", ErrCorrupt)
	}
	return patterns, nil
}

// creader is a cursor over one section payload with sticky errors, so parse
// functions read fields unconditionally and check once.
type creader struct {
	b   []byte
	off int
	err error
}

func (r *creader) rem() int { return len(r.b) - r.off }

func (r *creader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("bad uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a uvarint bounded by max, for values used as counts or
// indexes; anything larger is impossible for a valid file.
func (r *creader) count(max int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(max) {
		r.err = fmt.Errorf("count %d exceeds bound %d", v, max)
		return 0
	}
	return int(v)
}

func (r *creader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.rem() < n {
		r.err = fmt.Errorf("need %d bytes, have %d", n, r.rem())
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// Package persist is a versioned, self-describing binary codec and
// content-addressed disk store for dictionaries.
//
// The paper's regime is preprocess-once/match-many: preprocessing costs O(d)
// parallel work (§3.1), matching O(n) per text. What a server needs to
// restart quickly is the compiled dense automaton, so that is what this
// package makes durable: a snapshot holds the patterns, the seed and options
// the §3 dictionary is preprocessed with, and the automaton (bundle.go). The
// §3 tables are not stored — core.Preprocess rebuilds the same dictionary
// from the patterns and seed whenever something asks for it.
//
// File layout (all integers little-endian; §10 of DESIGN.md documents the
// exact byte layout):
//
//	magic   "DMSNAP" (6 bytes)
//	version uint32
//	sections, in fixed order: header, patterns, [dense]. Each section is:
//	        id byte, uvarint payload length, payload, CRC32-C of the
//	        payload (uint32).
//	footer  CRC32-C of every preceding byte (uint32)
//
// Older versions also wrote the §3 form, with tree, weiner, step2 and
// [separator] sections between patterns and dense. Readers still accept it:
// its framing, section CRCs and header are checked and its tables skipped.
//
// Multi-valued payload fields are varint-coded (unsigned LEB128). Decoding
// validates everything before allocating: header counts are bounded by the
// file size (every counted element costs at least one byte), and section
// CRCs and the whole-file CRC must match. Corrupted, truncated or
// adversarial inputs yield typed errors — never a panic or an unbounded
// allocation.
package persist

import "errors"

// Version is the current snapshot format version. Readers reject files with
// any other version (no forward or backward decoding across versions).
const Version uint32 = 1

// magic identifies snapshot files.
var magic = [6]byte{'D', 'M', 'S', 'N', 'A', 'P'}

// Section ids, in their required file order. New section kinds are appended
// with fresh ids; readers skip ids they do not know (after verifying the
// section CRC), so adding a section is a forward-compatible change that does
// not bump Version.
// secTree to secSeparator occur only in §3-form files; readers check their
// CRCs and skip them.
const (
	secHeader byte = iota + 1
	secPatterns
	secTree
	secWeiner
	secStep2
	secSeparator
	secDense // compiled dense automaton (internal/dense payload)
)

var sectionNames = map[byte]string{
	secHeader:    "header",
	secPatterns:  "patterns",
	secTree:      "tree",
	secWeiner:    "weiner",
	secStep2:     "step2",
	secSeparator: "separator",
	secDense:     "dense",
}

// Header flag bits. Every file this package writes sets flagNoTables: it carries
// no §3 section — only header, patterns and at most DENSE — and its header
// records the options the dictionary is preprocessed with instead of the
// built tables' counts: flagUseNaive then means NCANaive and
// flagImprovedNCA NCAImproved (neither is NCAAuto), and WindowL 0 is the
// automatic window. A §3-form file (flagNoTables clear) records its tables'
// counts, flagUseNaive for the naive NCA tables, and flagHasSeparator when
// it carries a separator section.
const (
	flagUseNaive = 1 << iota
	flagHasSeparator
	flagNoTables
	flagImprovedNCA
)

// Typed errors. Decoding failures wrap exactly one of these, so callers can
// distinguish "not a snapshot" (ErrBadMagic), "snapshot from another format
// era" (ErrVersion), "bytes missing" (ErrTruncated) and "bytes present but
// wrong" (ErrCorrupt) with errors.Is.
var (
	ErrBadMagic  = errors.New("persist: not a dictionary snapshot")
	ErrVersion   = errors.New("persist: unsupported snapshot version")
	ErrTruncated = errors.New("persist: truncated snapshot")
	ErrCorrupt   = errors.New("persist: corrupt snapshot")
	ErrNotFound  = errors.New("persist: snapshot not found")
)

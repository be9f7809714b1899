package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dense"
)

// Bundles. A snapshot comes in two forms that share one framing:
//
//   - the §3 form (Encode, EncodeBundle): header, patterns and the
//     dictionary's tables, optionally followed by a DENSE section holding
//     the compiled serving automaton (internal/dense). Tools write it, and
//     Load/LoadBundle restore its tables with zero PRAM work.
//   - the automaton form (Bundle.Encode): header, patterns and DENSE when
//     there is an automaton — no §3 section. Its header records the seed and
//     options the dictionary is preprocessed with instead of table counts.
//     This is what a server writes: it serves from the automaton and builds
//     the §3 dictionary only when something asks for it.
//
// OpenBundle reads either form without decoding a §3 section: it checks the
// framing, every section CRC, the header and the patterns, then restores
// DENSE. Load and LoadBundle read either form into a dictionary, by
// preprocessing the patterns when the file carries no tables. DENSE is
// strictly additive: readers from before it skip the section via the
// unknown-section rule in splitSections, and a DENSE-bearing file restores
// its automaton with a bounds-checked byte-order copy — zero compilation.

// Bundle is a snapshot as a server holds it: a pattern set, the options its
// §3 dictionary is preprocessed with, and its compiled automaton.
type Bundle struct {
	Patterns  [][]byte
	Options   core.Options     // as in core.Preprocess; OpenBundle resolves Seed 0 to 1
	Automaton *dense.Automaton // nil when there is none
}

// Encode serializes b in the automaton form: header, patterns, and DENSE
// when b has an automaton.
func (b *Bundle) Encode() []byte {
	out := make([]byte, 0, 1<<12)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = appendSection(out, secHeader, encodeOptionsHeader(b.Patterns, b.Options))
	out = appendSection(out, secPatterns, encodePatterns(b.Patterns))
	if b.Automaton != nil {
		out = appendSection(out, secDense, b.Automaton.Encode())
	}
	return sealSnapshot(out)
}

// OpenBundle reads snapshot bytes of either form into a Bundle. It checks
// framing, every section CRC, the header and the patterns, and restores
// DENSE; §3 sections, when present, are CRC-checked and skipped. The
// patterns are copied out, so the Bundle keeps none of data alive.
func OpenBundle(data []byte) (*Bundle, error) {
	o, err := open(data)
	if err != nil {
		return nil, err
	}
	a, err := o.automaton()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, o.hdr.patternBytes)
	patterns := make([][]byte, len(o.patterns))
	for i, p := range o.patterns {
		buf = append(buf, p...)
		patterns[i] = buf[len(buf)-len(p) : len(buf) : len(buf)]
	}
	return &Bundle{Patterns: patterns, Options: o.hdr.options(), Automaton: a}, nil
}

// EncodeBundle serializes a preprocessed dictionary in the §3 form together
// with its compiled dense automaton. A nil automaton yields exactly
// Encode(d).
func EncodeBundle(d *core.Dictionary, a *dense.Automaton) []byte {
	out := encodeSections(d.Export())
	if a != nil {
		out = appendSection(out, secDense, a.Encode())
	}
	return sealSnapshot(out)
}

// LoadBundle decodes snapshot bytes of either form into a ready-to-match
// dictionary plus the compiled dense automaton if the file carries one (nil
// otherwise). A file without §3 tables is preprocessed from its patterns and
// options. A DENSE section that survives its CRC but fails structural
// validation is reported as ErrCorrupt, like any other section.
func LoadBundle(data []byte) (*core.Dictionary, *dense.Automaton, error) {
	o, err := open(data)
	if err != nil {
		return nil, nil, err
	}
	a, err := o.automaton()
	if err != nil {
		return nil, nil, err
	}
	d, err := o.dictionary()
	if err != nil {
		return nil, nil, err
	}
	return d, a, nil
}

// PutBundle encodes the dictionary in the §3 form with its dense automaton
// (nil for none) and writes the snapshot under its key atomically, returning
// the size in bytes.
func (s *Store) PutBundle(k Key, d *core.Dictionary, a *dense.Automaton) (int, error) {
	data := EncodeBundle(d, a)
	unlock := s.lockKey(k)
	defer unlock()
	if err := s.writeAtomic(s.Path(k), data); err != nil {
		return 0, err
	}
	return len(data), nil
}

// GetBundle reads the snapshot stored under k with OpenBundle — no §3
// section is decoded — and reports its size. A missing entry returns
// ErrNotFound. An entry that fails validation is quarantined (renamed so
// future lookups miss) and the typed decode error is returned.
func (s *Store) GetBundle(k Key) (*Bundle, int, error) {
	data, err := s.read(k)
	if err != nil {
		return nil, 0, err
	}
	b, err := OpenBundle(data)
	if err != nil {
		s.quarantine(s.Path(k), err)
		return nil, 0, err
	}
	return b, len(data), nil
}

// read returns the bytes stored under k, ErrNotFound when there are none.
func (s *Store) read(k Key) ([]byte, error) {
	data, err := os.ReadFile(s.Path(k))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("persist: get: %w", err)
	}
	if i, mask, ok := chaos.CorruptByte(chaos.PersistBitflip, len(data)); ok {
		data[i] ^= mask
	}
	return data, nil
}

// WriteSnapshotFile writes snapshot bytes to an arbitrary path with the
// store's atomic write discipline — temp file in the destination directory,
// fsync, byte-for-byte read-back, rename — after checking the bytes load.
// cmd/dictpack uses it to upgrade snapshots in place.
func WriteSnapshotFile(path string, data []byte) error {
	if _, _, err := LoadBundle(data); err != nil {
		return err
	}
	s := &Store{dir: filepath.Dir(path), logf: func(string, ...any) {}}
	return s.writeAtomic(path, data)
}

// QuarantineFile renames a failed-validation snapshot aside exactly as the
// store's internal quarantine does, returning the quarantine path. Callers
// operating on loose files (cmd/dictpack) use it so a corrupt input cannot
// be mistaken for a live snapshot twice.
func QuarantineFile(path string, cause error) (string, error) {
	qpath := path + quarantineExt
	rerr := chaos.Err(chaos.PersistQuarantine, "rename")
	if rerr == nil {
		rerr = os.Rename(path, qpath)
	}
	if rerr != nil {
		return "", fmt.Errorf("persist: quarantine of %s failed (%v; cause: %w)", path, rerr, cause)
	}
	return qpath, nil
}

// HasDense reports whether snapshot bytes carry a DENSE section, without
// restoring anything beyond the framing walk.
func HasDense(data []byte) (bool, error) {
	sections, err := splitSections(data)
	if err != nil {
		return false, err
	}
	_, ok := sections[secDense]
	return ok, nil
}

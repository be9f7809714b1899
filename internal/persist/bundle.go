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

// Bundles. Every writer emits one form, the automaton form (Bundle.Encode):
// header, patterns, and DENSE — the compiled serving automaton
// (internal/dense) — when there is one. The header records the seed and
// options the §3 dictionary is preprocessed with; Theorem 3.1 builds that
// dictionary in O(d) work, so no table of it is stored.
//
// Files in the §3 form, which older versions wrote (header, patterns, tree,
// weiner, step2, [separator], [dense]), stay readable: every reader checks
// their framing, section CRCs and header, then skips the tables, exactly as
// it skips a section kind it does not know.
//
// OpenBundle reads either form without building a dictionary: it checks the
// framing, every section CRC, the header and the patterns, then restores
// DENSE with a bounds-checked byte-order copy — zero compilation. Load and
// LoadBundle also preprocess the patterns into a dictionary.

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

// EncodeBundle serializes a preprocessed dictionary in the automaton form,
// with its compiled dense automaton (nil for none). The header records the
// dictionary's options resolved — its current seed, NCA structure, anchor
// and window length — so LoadBundle preprocesses the same dictionary.
func EncodeBundle(d *core.Dictionary, a *dense.Automaton) []byte {
	opts := core.Options{Seed: d.Seed(), NCA: core.NCAImproved, Anchor: d.Anchor(), WindowL: d.WindowLen()}
	if d.UseNaiveNCA() {
		opts.NCA = core.NCANaive
	}
	return (&Bundle{Patterns: d.Patterns, Options: opts, Automaton: a}).Encode()
}

// LoadBundle decodes snapshot bytes of either form into a ready-to-match
// dictionary, preprocessed from the recorded patterns and options, plus the
// compiled dense automaton if the file carries one (nil otherwise). It
// accepts exactly what OpenBundle accepts: a DENSE section that survives its
// CRC but fails structural validation is ErrCorrupt, like any other section.
func LoadBundle(data []byte) (*core.Dictionary, *dense.Automaton, error) {
	o, err := open(data)
	if err != nil {
		return nil, nil, err
	}
	a, err := o.automaton()
	if err != nil {
		return nil, nil, err
	}
	return o.preprocess(), a, nil
}

// GetBundle reads the snapshot stored under k with OpenBundle and reports
// its size. A missing entry returns ErrNotFound. An entry that fails
// validation is quarantined (renamed so future lookups miss) and the typed
// decode error is returned.
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
// fsync, byte-for-byte read-back, rename — after checking that OpenBundle
// accepts them. cmd/dictpack uses it to upgrade snapshots in place.
func WriteSnapshotFile(path string, data []byte) error {
	if _, err := OpenBundle(data); err != nil {
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

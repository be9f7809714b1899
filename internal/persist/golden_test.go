package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
)

// goldenPatterns is a fixed dictionary covering the format's moving parts:
// repeated substrings (shared suffix-tree structure), a single byte, and a
// long pattern.
func goldenPatterns() [][]byte {
	return [][]byte{
		[]byte("banana"),
		[]byte("ana"),
		[]byte("nab"),
		[]byte("b"),
		[]byte("abracadabra"),
		[]byte("cad"),
	}
}

// goldenOptions are the options both golden files were written with.
var goldenOptions = core.Options{Seed: 42}

// goldenV1SHA256 pins golden_v1.dmsnap, a §3-form file (header, patterns,
// tree, weiner, step2, separator) written before the automaton form. No code
// writes that form any more, so the file cannot be regenerated; it stays
// byte for byte as the read-compatibility fixture.
const goldenV1SHA256 = "78bf8d10e59d6aedccc51ccaebdc347f9c9f42753274f437387c06897a05f1a3"

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read golden %s: %v", name, err)
	}
	return data
}

// sameDictionary reports whether two dictionaries hold identical tables.
func sameDictionary(a, b *core.Dictionary) bool { return reflect.DeepEqual(a, b) }

// TestGoldenSnapshot pins format v1 in both its forms.
//
//   - golden_automaton_v1.dmsnap (header, patterns, dense) must equal a
//     fresh EncodeBundle of the golden dictionary and its automaton byte for
//     byte. A codec change that alters the written form breaks this, which
//     is the signal to bump Version (and regenerate with UPDATE_GOLDEN=1 go
//     test ./internal/persist -run Golden).
//   - golden_v1.dmsnap, in the retired §3 form, must keep its bytes and be
//     read by Load, LoadBundle and OpenBundle into the dictionary
//     core.Preprocess builds from the same patterns and options.
//
// Both must answer like that dictionary at every position of a text.
func TestGoldenSnapshot(t *testing.T) {
	m := pram.New(1)
	d := core.Preprocess(m, goldenPatterns(), goldenOptions)
	aut, err := dense.CompileDictionary(d, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_automaton_v1.dmsnap")
	fresh := EncodeBundle(d, aut)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(fresh))
	}
	automatonForm := readGolden(t, "golden_automaton_v1.dmsnap")
	if !bytes.Equal(automatonForm, fresh) {
		t.Fatalf("encoding drifted from the committed automaton-form golden (%d vs %d bytes): bump Version and regenerate", len(fresh), len(automatonForm))
	}
	tablesForm := readGolden(t, "golden_v1.dmsnap")
	if sum := sha256.Sum256(tablesForm); hex.EncodeToString(sum[:]) != goldenV1SHA256 {
		t.Fatal("golden_v1.dmsnap changed: it is the §3-form read-compatibility fixture and must keep its bytes")
	}

	text := []byte("xxbananabracadabranabxcadabana")
	want := d.MatchText(m, text)
	for name, data := range map[string][]byte{"golden_v1": tablesForm, "golden_automaton_v1": automatonForm} {
		loaded, err := Load(data)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		bundled, a, err := LoadBundle(data)
		if err != nil {
			t.Fatalf("%s: LoadBundle: %v", name, err)
		}
		b, err := OpenBundle(data)
		if err != nil {
			t.Fatalf("%s: OpenBundle: %v", name, err)
		}
		if !reflect.DeepEqual(b.Patterns, goldenPatterns()) || b.Options.Seed != goldenOptions.Seed {
			t.Fatalf("%s: OpenBundle gave %q with options %+v", name, b.Patterns, b.Options)
		}
		if !sameDictionary(loaded, d) || !sameDictionary(bundled, d) {
			t.Fatalf("%s: the loaded dictionary differs from core.Preprocess's", name)
		}
		for i, got := range loaded.MatchText(m, text) {
			if got != want[i] {
				t.Fatalf("%s diverges at %d: %+v != %+v", name, i, got, want[i])
			}
		}
		if (a == nil) != (name == "golden_v1") || (b.Automaton == nil) != (a == nil) {
			t.Fatalf("%s: automaton from LoadBundle %v, from OpenBundle %v", name, a != nil, b.Automaton != nil)
		}
		if a != nil {
			for i, got := range a.Match(text) {
				if got != want[i] {
					t.Fatalf("%s: automaton diverges at %d: %+v != %+v", name, i, got, want[i])
				}
			}
		}
	}
}

// TestSnapshotValidation: a header or patterns section that describes no
// dictionary the patterns could build fails OpenBundle and LoadBundle with a
// typed error and never panics, in either form, and a §3-form file without
// its tree section is truncated. The §3 tables themselves are never decoded,
// so only these checks stand between a file and core.Preprocess.
func TestSnapshotValidation(t *testing.T) {
	tables := readGolden(t, "golden_v1.dmsnap")
	automaton := readGolden(t, "golden_automaton_v1.dmsnap")
	for _, data := range [][]byte{tables, automaton} {
		if !bytes.Equal(reframe(t, data, func(map[byte][]byte) {}), data) {
			t.Fatal("reframe does not reproduce an unchanged file")
		}
	}
	cases := []struct {
		name  string
		forms [][]byte
		mut   func(h *header, lens []int)
		drop  byte // a section to leave out
		want  error
	}{
		{"no patterns", [][]byte{tables, automaton}, func(h *header, lens []int) { h.numPatterns = 0 }, 0, ErrCorrupt},
		{"empty pattern", [][]byte{tables, automaton}, func(h *header, lens []int) { lens[1] += lens[0]; lens[0] = 0 }, 0, ErrCorrupt},
		{"bad window", [][]byte{tables}, func(h *header, lens []int) { h.windowL = 0 }, 0, ErrCorrupt},
		{"bad anchor", [][]byte{tables, automaton}, func(h *header, lens []int) { h.anchor = 99 }, 0, ErrCorrupt},
		{"nil tree", [][]byte{tables}, func(*header, []int) {}, secTree, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, data := range tc.forms {
				bad := reframe(t, data, func(sections map[byte][]byte) {
					sections[secHeader], sections[secPatterns] = mutateHeader(t, data, tc.mut)
					delete(sections, tc.drop)
				})
				if _, err := OpenBundle(bad); !errors.Is(err, tc.want) {
					t.Fatalf("OpenBundle: %v, want %v", err, tc.want)
				}
				if _, _, err := LoadBundle(bad); !errors.Is(err, tc.want) {
					t.Fatalf("LoadBundle: %v, want %v", err, tc.want)
				}
			}
		})
	}
}

// reframe rebuilds data from its sections after mut has changed them,
// re-sealing every CRC; a section mut deletes is left out. The payloads mut
// receives alias data.
func reframe(t testing.TB, data []byte, mut func(sections map[byte][]byte)) []byte {
	t.Helper()
	sections, err := splitSections(data)
	if err != nil {
		t.Fatal(err)
	}
	mut(sections)
	out := append([]byte(nil), data[:len(magic)+4]...)
	for id := secHeader; id <= secDense; id++ {
		if payload, ok := sections[id]; ok {
			out = appendSection(out, id, payload)
		}
	}
	return sealSnapshot(out)
}

// mutateHeader returns data's header and patterns payloads re-encoded after
// mut has changed the header fields and the pattern lengths.
func mutateHeader(t testing.TB, data []byte, mut func(h *header, lens []int)) (hdr, pats []byte) {
	t.Helper()
	o, err := open(data)
	if err != nil {
		t.Fatal(err)
	}
	h := *o.hdr
	lens := make([]int, len(o.patterns))
	var patBytes []byte
	for i, p := range o.patterns {
		lens[i] = len(p)
		patBytes = append(patBytes, p...)
	}
	mut(&h, lens)
	for _, v := range []uint64{h.seed, uint64(h.anchor), uint64(h.windowL), h.flags, uint64(h.numPatterns),
		uint64(h.patternBytes), uint64(h.numNodes), uint64(h.numLeaves), uint64(h.weinerCount), uint64(h.sepData)} {
		hdr = binary.AppendUvarint(hdr, v)
	}
	for _, l := range lens {
		pats = binary.AppendUvarint(pats, uint64(l))
	}
	return hdr, append(pats, patBytes...)
}

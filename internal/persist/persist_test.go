package persist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
	"repro/internal/stream"
	"repro/internal/textgen"
)

type matchCollector struct{ events []stream.MatchEvent }

func (c *matchCollector) MatchEvent(e stream.MatchEvent) error {
	c.events = append(c.events, e)
	return nil
}

// TestRoundTripEquivalence: for dictionaries across alphabets, sizes and
// options, Preprocess → EncodeBundle → LoadBundle yields a dictionary whose
// batch matching, streaming matching and §5 parse output are byte-identical
// to the original's — also after a Las Vegas reseed, whose new seed the
// bundle records.
func TestRoundTripEquivalence(t *testing.T) {
	gen := textgen.New(2024)
	type tc struct {
		name     string
		patterns [][]byte
		text     []byte
		opts     core.Options
		reseed   uint64 // reseed to this before encoding; 0 for none
	}
	cases := []tc{
		{"binary", gen.Dictionary(8, 1, 10, 2), gen.Uniform(600, 2), core.Options{}, 0},
		{"dna", gen.Dictionary(20, 2, 30, 4), gen.DNA(1500), core.Options{}, 0},
		{"bytes-veb", gen.Dictionary(30, 1, 40, 200), gen.Uniform(1200, 200), core.Options{NCA: core.NCAImproved}, 0},
		{"anchor-sa", gen.Dictionary(10, 1, 15, 8), gen.Markov(900, 8, 0.5), core.Options{Anchor: core.AnchorSA}, 0},
		{"prefix-closed", gen.PrefixClosedDictionary(5, 16, 3), gen.Repetitive(1000, 20, 0.05), core.Options{Seed: 777, WindowL: 25}, 0},
		{"single-pattern", [][]byte{[]byte("abracadabra")}, []byte(strings.Repeat("abracadabrab", 20)), core.Options{}, 0},
		{"reseeded", gen.Dictionary(12, 1, 20, 4), gen.Uniform(800, 4), core.Options{Seed: 5}, 0x9e3779b9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := pram.New(4)
			d := core.Preprocess(m, c.patterns, c.opts)
			if c.reseed != 0 {
				d.Reseed(m, c.reseed)
			}
			data := EncodeBundle(d, nil)

			m2 := pram.New(4)
			d2, _, err := LoadBundle(data)
			if err != nil {
				t.Fatalf("LoadBundle: %v", err)
			}
			if d2.Seed() != d.Seed() || !sameDictionary(d2, d) {
				t.Fatalf("loaded dictionary (seed %d) differs from the encoded one (seed %d)", d2.Seed(), d.Seed())
			}

			want := d.MatchText(m, c.text)
			got := d2.MatchText(m2, c.text)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("pos %d: %+v != %+v", i, got[i], want[i])
				}
			}

			// Streaming matching over small windows must agree event for event.
			var wantEv, gotEv matchCollector
			cfg := stream.Config{SegmentBytes: 256}
			if _, err := stream.Match(context.Background(), stream.DictMatcher{Dict: d, M: m},
				bytes.NewReader(c.text), &wantEv, cfg); err != nil {
				t.Fatalf("stream original: %v", err)
			}
			if _, err := stream.Match(context.Background(), stream.DictMatcher{Dict: d2, M: m2},
				bytes.NewReader(c.text), &gotEv, cfg); err != nil {
				t.Fatalf("stream restored: %v", err)
			}
			if len(wantEv.events) != len(gotEv.events) {
				t.Fatalf("stream events: %d != %d", len(gotEv.events), len(wantEv.events))
			}
			for i := range wantEv.events {
				if wantEv.events[i] != gotEv.events[i] {
					t.Fatalf("stream event %d: %+v != %+v", i, gotEv.events[i], wantEv.events[i])
				}
			}

			// §5 static parse: same refs, and cross-decompression works.
			refs, err1 := d.CompressStatic(m, c.text)
			refs2, err2 := d2.CompressStatic(m2, c.text)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("compress error divergence: %v vs %v", err1, err2)
			}
			if err1 == nil {
				if len(refs) != len(refs2) {
					t.Fatalf("parse lengths: %d != %d", len(refs2), len(refs))
				}
				for i := range refs {
					if refs[i] != refs2[i] {
						t.Fatalf("ref %d: %d != %d", i, refs2[i], refs[i])
					}
				}
				back, err := d2.DecompressStatic(m2, refs)
				if err != nil || !bytes.Equal(back, c.text) {
					t.Fatalf("cross decompression failed: %v", err)
				}
			}
		})
	}
}

// TestEncodeDeterministic: the same dictionary must always serialize to the
// same bytes (content addressing and the golden test depend on it).
func TestEncodeDeterministic(t *testing.T) {
	gen := textgen.New(5)
	patterns := gen.Dictionary(15, 1, 25, 30)
	d := core.Preprocess(pram.New(4), patterns, core.Options{})
	aut, err := dense.CompileDictionary(d, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := EncodeBundle(d, aut)
	b := EncodeBundle(d, aut)
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodings of one dictionary differ")
	}
	d2 := core.Preprocess(pram.New(1), patterns, core.Options{})
	aut2, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := EncodeBundle(d2, aut2)
	if !bytes.Equal(a, c) {
		t.Fatalf("encoding depends on machine parallelism or on how the automaton was compiled")
	}
}

// TestConcurrentLoads exercises decode under -race: many goroutines loading
// and matching from the same byte slice concurrently.
func TestConcurrentLoads(t *testing.T) {
	gen := textgen.New(31)
	patterns := gen.Dictionary(10, 1, 12, 4)
	text := gen.Uniform(400, 4)
	m := pram.New(2)
	d := core.Preprocess(m, patterns, core.Options{})
	aut, err := dense.CompileDictionary(d, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := d.MatchText(m, text)
	data := EncodeBundle(d, aut)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dl, al, err := LoadBundle(data)
			if err != nil {
				t.Errorf("LoadBundle: %v", err)
				return
			}
			got, gotDense := dl.MatchText(pram.New(1), text), al.Match(text)
			for i := range want {
				if got[i] != want[i] || gotDense[i] != want[i] {
					t.Errorf("pos %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodeRejectsCorruption: every sampled single-byte flip anywhere in a
// file of either form must be rejected by OpenBundle and LoadBundle with a
// typed error (the whole-file CRC makes this certain, the section CRCs
// localize it) — in the §3 form too, whose tables no reader decodes.
func TestDecodeRejectsCorruption(t *testing.T) {
	gen := textgen.New(77)
	d := core.Preprocess(pram.New(1), gen.Dictionary(6, 1, 10, 4), core.Options{})
	aut, err := dense.CompileDictionary(d, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"automaton form": EncodeBundle(d, aut),
		"§3 form":        readGolden(t, "golden_v1.dmsnap"),
	} {
		reject := func(what string, mut []byte) {
			t.Helper()
			_, errO := OpenBundle(mut)
			_, _, errL := LoadBundle(mut)
			for _, err := range []error{errO, errL} {
				if err == nil {
					t.Fatalf("%s: %s accepted", name, what)
				}
				if !isTyped(err) {
					t.Fatalf("%s: %s: untyped error %v", name, what, err)
				}
			}
		}
		for off := 0; off < len(data); off += 3 {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x41
			reject(fmt.Sprintf("flip at %d", off), mut)
		}
		for _, cut := range []int{0, 1, 5, 9, len(data) / 2, len(data) - 1} {
			reject(fmt.Sprintf("truncation to %d", cut), data[:cut])
		}
		// Version bump with a fixed-up CRC must fail as ErrVersion, not ErrCorrupt.
		mut := append([]byte(nil), data...)
		mut[6]++
		if _, err := OpenBundle(sealSnapshot(mut[:len(mut)-4])); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: future version: %v", name, err)
		}
	}
}

// isTyped reports whether err wraps one of the four decode errors.
func isTyped(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) ||
		errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt)
}

// TestStore covers the content-addressed cache: hit/miss, atomic write,
// quarantine of corrupt entries, and key sensitivity to inputs.
func TestStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	gen := textgen.New(123)
	patterns := gen.Dictionary(8, 1, 12, 4)
	opts := core.Options{}
	key := KeyFor(patterns, opts)

	if _, _, err := st.GetBundle(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: got %v, want ErrNotFound", err)
	}

	aut, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := (&Bundle{Patterns: patterns, Options: opts, Automaton: aut}).Encode()
	n, err := st.PutBytes(key, data)
	if err != nil || n != len(data) {
		t.Fatalf("PutBytes: n=%d err=%v", n, err)
	}
	if !st.Has(key) {
		t.Fatalf("Has after PutBytes is false")
	}
	b, size, err := st.GetBundle(key)
	if err != nil || size != n {
		t.Fatalf("GetBundle: size=%d err=%v", size, err)
	}
	if !reflect.DeepEqual(b.Patterns, patterns) || b.Options.Seed != 1 || b.Automaton.Stats() != aut.Stats() {
		t.Fatalf("GetBundle gave %d patterns, options %+v", len(b.Patterns), b.Options)
	}
	text := gen.Uniform(300, 4)
	want := aut.Match(text)
	for i, got := range b.Automaton.Match(text) {
		if want[i] != got {
			t.Fatalf("cached automaton diverges at %d", i)
		}
	}

	keys, err := st.Keys()
	if err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys: %v %v", keys, err)
	}

	// Different inputs → different keys.
	if KeyFor(patterns, core.Options{Seed: 9}) == key {
		t.Fatalf("seed not in key")
	}
	if KeyFor(patterns[:len(patterns)-1], opts) == key {
		t.Fatalf("patterns not in key")
	}
	if KeyFor(patterns, core.Options{Anchor: core.AnchorSA}) == key {
		t.Fatalf("anchor not in key")
	}
	// Seed 0 and seed 1 canonicalize identically (core resolves 0 to 1).
	if KeyFor(patterns, core.Options{Seed: 1}) != key {
		t.Fatalf("seed 0 and 1 should share a key")
	}

	// Corrupt the entry on disk: GetBundle must quarantine it and the store
	// must then miss; the quarantined bytes must still exist for
	// post-mortems.
	path := st.Path(key)
	onDisk, _ := os.ReadFile(path)
	onDisk[len(onDisk)/2] ^= 0xFF
	if err := os.WriteFile(path, onDisk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.GetBundle(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt GetBundle: %v", err)
	}
	if _, err := os.Stat(path + quarantineExt); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, _, err := st.GetBundle(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after quarantine: %v, want ErrNotFound", err)
	}
	// Re-put repopulates under the same name.
	if _, err := st.PutBytes(key, data); err != nil {
		t.Fatalf("re-PutBytes: %v", err)
	}
	if _, _, err := st.GetBundle(key); err != nil {
		t.Fatalf("GetBundle after re-PutBytes: %v", err)
	}

	// PutBytes refuses bytes that do not load.
	if _, err := st.PutBytes(key, []byte("junk")); err == nil {
		t.Fatalf("PutBytes accepted junk")
	}
}

// TestInspectVerify sanity-checks the reporting path cmd/dictpack uses, on
// a file of each form.
func TestInspectVerify(t *testing.T) {
	gen := textgen.New(55)
	patterns := gen.Dictionary(7, 2, 9, 4)
	d := core.Preprocess(pram.New(1), patterns, core.Options{})
	aut, err := dense.CompileDictionary(d, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		data     []byte
		patterns int
		sections string
		tables   bool // §3 form: the header counts the tables
	}{
		{EncodeBundle(d, aut), len(patterns), "[header patterns dense]", false},
		{readGolden(t, "golden_v1.dmsnap"), len(goldenPatterns()), "[header patterns tree weiner step2 separator]", true},
	} {
		info, err := Verify(c.data)
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if info.Version != Version || info.NumPatterns != c.patterns || info.FileBytes != len(c.data) {
			t.Fatalf("info mismatch: %+v", info)
		}
		var names []string
		var total int
		for _, s := range info.Sections {
			names = append(names, s.Name)
			total += s.Bytes
		}
		if fmt.Sprint(names) != c.sections {
			t.Fatalf("sections %v, want %s", names, c.sections)
		}
		if (info.NumNodes > 0) != c.tables || info.HasSeparator != c.tables || (info.Dense != nil) == c.tables {
			t.Fatalf("info %+v does not match the form", info)
		}
		if total >= len(c.data) {
			t.Fatalf("section payloads exceed file size")
		}
	}
}

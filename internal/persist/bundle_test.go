package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
	"repro/internal/textgen"
)

func bundleDict(t testing.TB) (*core.Dictionary, [][]byte) {
	t.Helper()
	gen := textgen.New(404)
	patterns := gen.Dictionary(10, 1, 8, 5)
	return core.Preprocess(pram.NewSequential(), patterns, core.Options{Seed: 7}), patterns
}

// appendUnknownSection splices a synthetic section with an unassigned id in
// front of the footer, re-sealing the file CRC — what a future writer that
// appends a new section kind would produce.
func appendUnknownSection(data []byte, id byte, payload []byte) []byte {
	body := append([]byte(nil), data[:len(data)-4]...)
	body = appendSection(body, id, payload)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// TestUnknownSectionSkipped is the forward-compat regression test: a
// snapshot carrying a section id this reader has never heard of must load
// cleanly, with all known sections intact.
func TestUnknownSectionSkipped(t *testing.T) {
	d, _ := bundleDict(t)
	data := appendUnknownSection(EncodeBundle(d, nil), 200, []byte("from the future"))

	got, err := Load(data)
	if err != nil {
		t.Fatalf("Load with unknown section: %v", err)
	}
	m := pram.NewSequential()
	text := textgen.New(9).Uniform(500, 5)
	want := d.MatchText(m, text)
	for i, mt := range got.MatchText(m, text) {
		if mt != want[i] {
			t.Fatalf("match %d differs after unknown-section round trip", i)
		}
	}
	if _, err := Inspect(data); err != nil {
		t.Fatalf("Inspect with unknown section: %v", err)
	}

	// The skip is not a free pass: the unknown payload is still CRC-checked.
	bad := append([]byte(nil), data...)
	bad[len(bad)-10] ^= 0x01 // inside the unknown payload
	// Re-seal the file CRC so only the section CRC catches it.
	bad = bad[:len(bad)-4]
	bad = binary.LittleEndian.AppendUint32(bad, crc32.Checksum(bad, castagnoli))
	if _, err := Load(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted unknown section: err=%v, want ErrCorrupt", err)
	}
}

// TestEncodeBundleDenseLess: without an automaton, EncodeBundle writes the
// automaton form's header and patterns alone, with the dictionary's options
// resolved, and LoadBundle gives back no automaton.
func TestEncodeBundleDenseLess(t *testing.T) {
	d, patterns := bundleDict(t)
	want := (&Bundle{Patterns: patterns, Options: core.Options{Seed: 7, NCA: core.NCANaive, WindowL: d.WindowLen()}}).Encode()
	if !d.UseNaiveNCA() {
		t.Fatal("bundleDict no longer picks the naive NCA tables; fix want")
	}
	if !bytes.Equal(EncodeBundle(d, nil), want) {
		t.Fatal("EncodeBundle(d, nil) differs from the Bundle of d's resolved options")
	}
	dict, aut, err := LoadBundle(want)
	if err != nil || !sameDictionary(dict, d) {
		t.Fatalf("LoadBundle on a dense-less bundle: %v", err)
	}
	if aut != nil {
		t.Fatal("dense-less snapshot produced an automaton")
	}
}

// TestBundleRoundTrip: a DENSE-bearing snapshot restores an automaton with
// zero recompilation (the restored automaton matches the compiled one bit
// for bit), next to the dictionary preprocessed from its patterns.
func TestBundleRoundTrip(t *testing.T) {
	d, _ := bundleDict(t)
	a, err := dense.CompileDictionary(d, dense.Options{})
	if err != nil {
		t.Fatalf("CompileDictionary: %v", err)
	}
	data := EncodeBundle(d, a)

	has, err := HasDense(data)
	if err != nil || !has {
		t.Fatalf("HasDense = %v, %v", has, err)
	}
	dict, aut, err := LoadBundle(data)
	if err != nil {
		t.Fatalf("LoadBundle: %v", err)
	}
	if aut == nil {
		t.Fatal("DENSE section did not restore an automaton")
	}
	if aut.Stats() != a.Stats() {
		t.Fatalf("restored stats %+v != compiled stats %+v", aut.Stats(), a.Stats())
	}
	text := textgen.New(31).Uniform(800, 5)
	want := a.Match(text)
	for i, mt := range aut.Match(text) {
		if mt != want[i] {
			t.Fatalf("restored automaton diverges at %d", i)
		}
	}
	want2 := dict.MatchText(pram.NewSequential(), text)
	for i := range want {
		if want[i] != want2[i] {
			t.Fatalf("dense and tree-walk disagree at %d after round trip", i)
		}
	}

	info, err := Inspect(data)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if info.Dense == nil || info.Dense.States != a.Stats().States {
		t.Fatalf("Inspect dense info = %+v, want states %d", info.Dense, a.Stats().States)
	}

	// A structurally corrupt DENSE payload with valid CRCs (a well-formed
	// file describing an impossible automaton) is ErrCorrupt even though the
	// core sections are fine — no silently serving a half-valid bundle.
	pay := a.Encode()
	pay[len(pay)-1] ^= 0x7f // last outPat entry: pattern id out of range
	bare := EncodeBundle(d, nil)
	bad := sealSnapshot(appendSection(bare[:len(bare)-4], secDense, pay))
	if _, _, err := LoadBundle(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt dense payload: err=%v, want ErrCorrupt", err)
	}
}

// TestStoreBundle covers the store round trip of a DENSE-bearing bundle.
func TestStoreBundle(t *testing.T) {
	d, patterns := bundleDict(t)
	a, err := dense.CompileDictionary(d, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor(patterns, core.Options{Seed: 7})
	if _, err := st.PutBytes(k, EncodeBundle(d, a)); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	b, n, err := st.GetBundle(k)
	if err != nil || b.Automaton == nil || len(b.Patterns) != len(patterns) || b.Options.Seed != 7 || n == 0 {
		t.Fatalf("GetBundle: bundle=%+v n=%d err=%v", b, n, err)
	}
	if _, _, err := st.GetBundle(KeyForSnapshot([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}

	// Sweep must treat bundle files as valid.
	rep, err := st.Sweep(nil)
	if err != nil || rep.Valid != 1 || rep.Quarantined != 0 {
		t.Fatalf("Sweep: %+v, %v", rep, err)
	}

	// WriteSnapshotFile upgrades in place atomically.
	path := st.Path(k)
	if err := WriteSnapshotFile(path, EncodeBundle(d, a)); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	if err := WriteSnapshotFile(path, []byte("garbage")); err == nil {
		t.Fatal("WriteSnapshotFile accepted garbage")
	}

	// QuarantineFile renames aside like the store's internal quarantine.
	qpath, err := QuarantineFile(path, errors.New("synthetic"))
	if err != nil {
		t.Fatalf("QuarantineFile: %v", err)
	}
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if st.Has(k) {
		t.Fatal("quarantined file still visible under its key")
	}
}

// TestAutomatonBundle: the automaton form carries header, patterns and
// DENSE and no §3 section. OpenBundle gives back the patterns, options and
// automaton; Load, LoadBundle and Verify preprocess it with the recorded
// options into exactly the dictionary core.Preprocess builds from them.
func TestAutomatonBundle(t *testing.T) {
	_, patterns := bundleDict(t)
	aut, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.Options{
		{},
		{Seed: 7},
		{Seed: 9, NCA: core.NCANaive, Anchor: core.AnchorSA, WindowL: 5},
		{Seed: 11, NCA: core.NCAImproved},
	} {
		data := (&Bundle{Patterns: patterns, Options: opts, Automaton: aut}).Encode()
		info, err := Inspect(data)
		if err != nil {
			t.Fatalf("%+v: Inspect: %v", opts, err)
		}
		var names []string
		for _, sec := range info.Sections {
			names = append(names, sec.Name)
		}
		if fmt.Sprint(names) != "[header patterns dense]" {
			t.Fatalf("%+v: sections %v, want header, patterns, dense", opts, names)
		}
		b, err := OpenBundle(data)
		if err != nil {
			t.Fatalf("%+v: OpenBundle: %v", opts, err)
		}
		want := opts
		if want.Seed == 0 {
			want.Seed = 1
		}
		if b.Options != want || fmt.Sprint(b.Patterns) != fmt.Sprint(patterns) || b.Automaton.Stats() != aut.Stats() {
			t.Fatalf("%+v: OpenBundle gave options %+v, %d patterns, automaton %+v", opts, b.Options, len(b.Patterns), b.Automaton.Stats())
		}
		eager := core.Preprocess(pram.New(2), patterns, opts)
		d, a, err := LoadBundle(data)
		if err != nil || a == nil {
			t.Fatalf("%+v: LoadBundle: %v", opts, err)
		}
		if !sameDictionary(d, eager) {
			t.Fatalf("%+v: LoadBundle's dictionary differs from core.Preprocess's", opts)
		}
		if d, err := Load(data); err != nil || !sameDictionary(d, eager) {
			t.Fatalf("%+v: Load: %v", opts, err)
		}
		if _, err := Verify(data); err != nil {
			t.Fatalf("%+v: Verify: %v", opts, err)
		}
	}
	// Without an automaton the form is header and patterns alone.
	bare := (&Bundle{Patterns: patterns, Options: core.Options{Seed: 7}}).Encode()
	if b, err := OpenBundle(bare); err != nil || b.Automaton != nil {
		t.Fatalf("OpenBundle without DENSE: %+v, %v", b, err)
	}
	if has, err := HasDense(bare); err != nil || has {
		t.Fatalf("HasDense without DENSE = %v, %v", has, err)
	}
}

// TestOpenBundleSkipsTables: every reader takes a §3-form file's patterns
// and options and skips its tables — a table byte changed under valid CRCs
// changes nothing — and the recorded options, resolved, preprocess to the
// dictionary the file was written from.
func TestOpenBundleSkipsTables(t *testing.T) {
	data := readGolden(t, "golden_v1.dmsnap")
	want := core.Preprocess(pram.NewSequential(), goldenPatterns(), goldenOptions)
	b, err := OpenBundle(data)
	if err != nil {
		t.Fatalf("OpenBundle on a §3 file: %v", err)
	}
	if fmt.Sprint(b.Patterns) != fmt.Sprint(goldenPatterns()) || b.Automaton != nil || b.Options.Seed != 42 ||
		b.Options.NCA == core.NCAAuto || b.Options.WindowL != want.WindowLen() {
		t.Fatalf("OpenBundle on a §3 file: %+v", b)
	}
	if !sameDictionary(core.Preprocess(pram.NewSequential(), b.Patterns, b.Options), want) {
		t.Fatal("the recorded options preprocess to a different dictionary")
	}

	// Overwrite the middle of the tree section, and re-seal both CRCs.
	bad := reframe(t, data, func(sections map[byte][]byte) {
		tree := append([]byte(nil), sections[secTree]...)
		tree[len(tree)/2] ^= 0x7f
		sections[secTree] = tree
	})
	if bytes.Equal(bad, data) {
		t.Fatal("the rewrite did not change the tree section")
	}
	if _, err := OpenBundle(bad); err != nil {
		t.Fatalf("OpenBundle decoded the tree section: %v", err)
	}
	if d, _, err := LoadBundle(bad); err != nil || !sameDictionary(d, want) {
		t.Fatalf("LoadBundle decoded the tree section: %v", err)
	}
}

// TestAutomatonBundleBitFlips: a bit flipped in any section of the
// automaton form — header, patterns, DENSE — or in the footer fails
// OpenBundle with ErrCorrupt, and Sweep quarantines the file.
func TestAutomatonBundleBitFlips(t *testing.T) {
	_, patterns := bundleDict(t)
	aut, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := (&Bundle{Patterns: patterns, Options: core.Options{Seed: 7}, Automaton: aut}).Encode()
	// One offset inside each section's payload, found by walking the framing.
	var offsets []int
	rest := len(magic) + 4
	for rest < len(data)-4 {
		plen, n := binary.Uvarint(data[rest+1:])
		offsets = append(offsets, rest+1+n+int(plen)/2)
		rest += 1 + n + int(plen) + 4
	}
	if len(offsets) != 3 {
		t.Fatalf("walked %d sections, want 3", len(offsets))
	}
	offsets = append(offsets, len(data)-1)
	for _, off := range offsets {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if _, err := OpenBundle(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: OpenBundle %v, want ErrCorrupt", off, err)
		}
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		k := KeyFor(patterns, core.Options{Seed: 7})
		if err := os.WriteFile(st.Path(k), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if rep, err := st.Sweep(nil); err != nil || rep.Quarantined != 1 || rep.Valid != 0 {
			t.Fatalf("flip at %d: Sweep %+v, %v", off, rep, err)
		}
	}
}

package persist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
	"repro/internal/textgen"
)

// FuzzSnapshotDecode drives adversarial bytes through both read paths:
// OpenBundle (framing, checksums, header, patterns, DENSE restore) and
// LoadBundle (the same, then core.Preprocess of the recorded patterns). The
// contract under fuzz: never panic, never allocate unboundedly (all counts
// are validated against the input size before allocation), accept exactly
// the same inputs on both paths, and either return a working dictionary or
// exactly one of the typed errors. Seeds cover both golden files and
// automaton-form bundles with and without DENSE.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(readGolden(f, "golden_v1.dmsnap"))
	f.Add(readGolden(f, "golden_automaton_v1.dmsnap"))
	gen := textgen.New(9000)
	seeds := [][][]byte{
		{[]byte("a")},
		{[]byte("ab"), []byte("ba"), []byte("abab")},
		gen.Dictionary(6, 1, 8, 4),
		gen.Dictionary(12, 1, 16, 100),
	}
	optVariants := []core.Options{{}, {Anchor: core.AnchorSA}, {NCA: core.NCAImproved}}
	for i, patterns := range seeds {
		b := &Bundle{Patterns: patterns, Options: optVariants[i%len(optVariants)]}
		if i%2 == 1 {
			aut, err := dense.Compile(patterns, dense.Options{})
			if err != nil {
				f.Fatal(err)
			}
			b.Automaton = aut
		}
		f.Add(b.Encode())
	}
	f.Add([]byte("DMSNAP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, errOpen := OpenBundle(data)
		d, a, errLoad := LoadBundle(data)
		if (errOpen == nil) != (errLoad == nil) {
			t.Fatalf("OpenBundle and LoadBundle disagree: %v vs %v", errOpen, errLoad)
		}
		if errOpen != nil {
			if !isTyped(errOpen) || !isTyped(errLoad) {
				t.Fatalf("untyped decode error: %v / %v", errOpen, errLoad)
			}
			return
		}
		if (b.Automaton == nil) != (a == nil) || len(b.Patterns) != len(d.Patterns) {
			t.Fatalf("OpenBundle and LoadBundle read different bundles")
		}
		// Accepted input: the dictionary must actually work (match a text
		// and satisfy its own checker) — acceptance of broken structures
		// would be worse than rejection.
		m := pram.New(1)
		text := []byte("the quick brown fox jumps over the lazy dog")
		matches := d.MatchText(m, text)
		if len(matches) != len(text) {
			t.Fatalf("accepted snapshot returns %d matches for %d positions", len(matches), len(text))
		}
		if !d.Check(m, text, matches) {
			t.Fatalf("accepted snapshot fails the Las Vegas checker")
		}
	})
}

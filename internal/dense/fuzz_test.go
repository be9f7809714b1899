package dense

import (
	"bytes"
	"testing"

	"repro/internal/ahocorasick"
	"repro/internal/core"
	"repro/internal/pram"
)

// FuzzDenseEquivalence checks, for fuzzer-chosen dictionaries and texts —
// overlapping and nested patterns very much included, since the dictionary
// is carved from the text's own alphabet, and texts several kernel blocks
// long — that the compiled dense automaton agrees bit-for-bit with both
// oracles:
//
//   - the naive map-based Aho–Corasick baseline (internal/ahocorasick), and
//   - the paper's Las Vegas-checked tree-walk matcher (internal/core),
//
// on the full M[i] output, and that Scan's occurrence stream is internally
// consistent (every reported range spells its pattern). The dense snapshot
// payload must also round-trip through Encode/Restore to identical output.
func FuzzDenseEquivalence(f *testing.F) {
	f.Add([]byte("ushers her hers"), []byte("he\nshe\nhers\nhis"), uint8(3))
	f.Add([]byte("aaaaaaaa"), []byte("a\naa\naaa"), uint8(2))
	f.Add(bytes.Repeat([]byte("abcab"), 40), []byte("ab\nbca\ncabc\nabcab"), uint8(3))
	f.Add([]byte("xyxyxyx"), []byte("xyx\nyxy"), uint8(4))
	f.Add([]byte("the lanes split here"), []byte("lane\nes s\nhere"), uint8(5))

	f.Fuzz(func(t *testing.T, rawText, rawDict []byte, sigma uint8) {
		if len(rawText) > 2048 || len(rawDict) > 256 {
			return
		}
		text, patterns := fuzzCase(rawText, rawDict, sigma)
		if len(patterns) == 0 {
			return
		}
		a, err := Compile(patterns, Options{})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		got := a.Match(text)

		// Oracle 1: naive Aho–Corasick.
		ac := ahocorasick.New(patterns)
		ids := ac.Match(text)
		for i := range got {
			wantID, wantLen := int32(-1), int32(0)
			if ids[i] >= 0 {
				wantID, wantLen = ids[i], ac.PatternLen(ids[i])
			}
			if got[i].PatternID != wantID || got[i].Length != wantLen {
				t.Fatalf("vs ahocorasick at %d: got (%d,%d), want (%d,%d)",
					i, got[i].PatternID, got[i].Length, wantID, wantLen)
			}
		}

		// Oracle 2: the paper's matcher (checked: MatchLasVegas would loop on
		// fingerprint collisions; sequential Monte Carlo + Check is enough
		// here because Check failing would fail the run loudly).
		m := pram.NewSequential()
		d := core.Preprocess(m, patterns, core.Options{Seed: 99})
		want := d.MatchText(m, text)
		if !d.Check(m, text, want) {
			t.Skip("fingerprint collision — astronomically rare, not a dense bug")
		}
		for i := range got {
			if got[i].Length != want[i].Length {
				t.Fatalf("vs core at %d: got %+v, want %+v", i, got[i], want[i])
			}
			// Duplicate patterns may carry different ids across
			// implementations; the spelled bytes must agree.
			if got[i].PatternID != want[i].PatternID &&
				!bytes.Equal(patterns[got[i].PatternID], patterns[want[i].PatternID]) {
				t.Fatalf("vs core at %d: got %+v, want %+v", i, got[i], want[i])
			}
		}

		// Occurrence stream: every reported range must spell its pattern.
		if err := a.Scan(text, func(pat int32, from, to int) error {
			if from < 0 || to > len(text) || !bytes.Equal(text[from:to], patterns[pat]) {
				t.Fatalf("Scan emitted (%d,%d,%d) which does not spell pattern %d", pat, from, to, pat)
			}
			return nil
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}

		// Snapshot round trip.
		b, err := Restore(a.Encode(), patterns)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		restored := b.Match(text)
		for i := range got {
			if restored[i] != got[i] {
				t.Fatalf("restored automaton diverges at %d", i)
			}
		}
	})
}

// fuzzCase is the input folding both fuzz targets share. Text and
// dictionary are folded onto a small alphabet of sigma%8+2 letters, so
// patterns actually occur, overlap and nest; newline splits the dictionary
// into at most 24 patterns. A non-empty text is then tiled, each copy's
// letters rotated by one more, to at least two kernel blocks and at most
// one input past that, so every fuzzed text runs the lanes on its blocks
// and the single lane on any tail (TestFuzzInputsReachLanes).
func fuzzCase(rawText, rawDict []byte, sigma uint8) ([]byte, [][]byte) {
	s := int(sigma)%8 + 2
	var text []byte
	for k := 0; len(rawText) > 0 && len(text) < 2*blockBytes; k++ {
		for _, v := range rawText {
			text = append(text, 'a'+byte((int(v)+k)%s))
		}
	}
	var patterns [][]byte
	for _, part := range bytes.Split(rawDict, []byte("\n")) {
		if len(part) == 0 || len(patterns) >= 24 {
			continue
		}
		p := make([]byte, len(part))
		for i, v := range part {
			p[i] = 'a' + v%byte(s)
		}
		patterns = append(patterns, p)
	}
	return text, patterns
}

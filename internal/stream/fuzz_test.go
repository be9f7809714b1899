package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/staticdict"
)

// FuzzStreamEquivalence checks, for random texts and random segmentations —
// including segments smaller than the longest pattern — that every
// streaming codec is byte-identical to its one-shot counterpart:
//
//   - Match emits exactly the batch MatchLasVegas events, and so does
//     MatchDense, with and without the per-window oracle,
//   - Parse emits exactly the batch FrontierParse phrases (count-equal to
//     OptimalParse), with word IDs that spell their phrases,
//   - Uncompress reproduces the text from an lz.Compress container.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add([]byte("abcabracadabra"), uint16(3))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaa"), uint16(1))
	f.Add([]byte("cabcabcabbbabcaabca"), uint16(7))
	f.Add(bytes.Repeat([]byte("abca"), 300), uint16(64))

	m := pram.NewSequential()
	d := core.Preprocess(m, prefixClosed, core.Options{Seed: 2})
	maxPat := d.MaxPatternLen()
	a := mustCompileDense(f, d)

	f.Fuzz(func(t *testing.T, data []byte, seg uint16) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		text := make([]byte, len(data))
		for i, v := range data {
			text[i] = 'a' + v%3
		}
		// Segment sizes 1..96 cover both the degenerate (< maxPat, so the
		// carry spans several segments) and the generous regime.
		segSize := int(seg)%96 + 1
		cfg := Config{SegmentBytes: segSize}
		ctx := context.Background()

		// Matching.
		wantM := oneShotMatches(m, d, text)
		var gotM matchCollector
		if _, err := Match(ctx, DictMatcher{Dict: d, M: m}, bytes.NewReader(text), &gotM, cfg); err != nil {
			t.Fatalf("Match(seg=%d): %v", segSize, err)
		}
		if !matchEventsEqual(gotM.events, wantM) {
			t.Fatalf("Match(seg=%d): %d events, batch %d", segSize, len(gotM.events), len(wantM))
		}
		checkDenseLegs(t, a, text, wantM, cfg, fmt.Sprintf("seg=%d", segSize))

		// Parsing. The dictionary is prefix-closed with all single letters,
		// so every text over {a,b,c} parses.
		if len(text) > 0 {
			b := d.PrefixLengths(m, text)
			wantP, err := staticdict.FrontierParse(len(text), b)
			if err != nil {
				t.Fatalf("FrontierParse: %v", err)
			}
			opt, err := staticdict.OptimalParse(m, len(text), b)
			if err != nil {
				t.Fatalf("OptimalParse: %v", err)
			}
			if len(wantP) != len(opt) {
				t.Fatalf("frontier %d phrases, optimal %d", len(wantP), len(opt))
			}
			var gotP phraseCollector
			if _, err := Parse(ctx, d, m, bytes.NewReader(text), &gotP, cfg); err != nil {
				t.Fatalf("Parse(seg=%d): %v", segSize, err)
			}
			if len(gotP.events) != len(wantP) {
				t.Fatalf("Parse(seg=%d): %d phrases, want %d", segSize, len(gotP.events), len(wantP))
			}
			var covered int64
			for k, e := range gotP.events {
				if e.Pos != int64(wantP[k].Pos) || e.Len != wantP[k].Len {
					t.Fatalf("Parse(seg=%d): phrase %d = (%d,%d), want (%d,%d)",
						segSize, k, e.Pos, e.Len, wantP[k].Pos, wantP[k].Len)
				}
				if e.Len > int32(maxPat) {
					t.Fatalf("phrase longer than longest pattern: %d", e.Len)
				}
				if e.Word < 0 || !bytes.Equal(d.Patterns[e.Word], text[e.Pos:e.Pos+int64(e.Len)]) {
					t.Fatalf("Parse(seg=%d): phrase %d word %d does not spell the phrase", segSize, k, e.Word)
				}
				covered += int64(e.Len)
			}
			if covered != int64(len(text)) {
				t.Fatalf("phrases cover %d of %d bytes", covered, len(text))
			}
		}

		// Decompression.
		c := lz.Compress(m, text)
		var enc bytes.Buffer
		if err := lz.EncodeStream(&enc, c); err != nil {
			t.Fatalf("EncodeStream: %v", err)
		}
		u, err := NewUncompressor(bytes.NewReader(enc.Bytes()), UncompressConfig{})
		if err != nil {
			t.Fatalf("NewUncompressor: %v", err)
		}
		var out bytes.Buffer
		if _, err := u.Run(ctx, &out); err != nil {
			t.Fatalf("Uncompress: %v", err)
		}
		if !bytes.Equal(out.Bytes(), text) {
			t.Fatalf("Uncompress: output diverges at %d bytes", out.Len())
		}
		// A window at least the text length never trims, so it must also
		// round-trip (spills allowed, errors not).
		if len(text) > 0 {
			u, err = NewUncompressor(bytes.NewReader(enc.Bytes()), UncompressConfig{Window: len(text)})
			if err != nil {
				t.Fatalf("NewUncompressor(windowed): %v", err)
			}
			out.Reset()
			if _, err := u.Run(ctx, &out); err != nil && !errors.Is(err, ErrWindowExceeded) {
				t.Fatalf("windowed Uncompress: %v", err)
			} else if err == nil && !bytes.Equal(out.Bytes(), text) {
				t.Fatalf("windowed Uncompress diverges")
			}
		}
	})
}

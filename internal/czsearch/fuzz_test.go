package czsearch

import (
	"bytes"
	"testing"

	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/pram"
)

// FuzzCzsearchEquivalence is the acceptance-criterion fuzz target: for
// random texts AND random raw token streams, the compressed-domain scanner
// must be byte-identical to decompress-then-match on the same automaton, in
// both of its modes.
//
// Two container sources per input:
//
//  1. A genuine lz.Compress parse of a derived text — realistic token
//     shapes, arbitrarily far back-references.
//  2. A hand-assembled token stream decoded from the raw fuzz bytes —
//     adversarial shapes lz.Compress would never emit: repeated identical
//     tokens (memo hits), short overlapping self-referential copies,
//     pathological literal/copy interleavings.
func FuzzCzsearchEquivalence(f *testing.F) {
	f.Add([]byte("abcabracadabra"), []byte{2, 9, 0, 4})
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaa"), []byte{0, 200, 1, 1, 1, 1})
	f.Add(bytes.Repeat([]byte("abca"), 300), []byte{7, 7, 7, 7, 7, 7})

	m := pram.NewSequential()
	patterns := [][]byte{
		[]byte("a"), []byte("ab"), []byte("abc"), []byte("abca"),
		[]byte("aaaa"), []byte("cab"), []byte("bb"), []byte("cc"),
	}
	aut, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		f.Fatal(err)
	}

	check := func(t *testing.T, label string, container []byte) {
		c, err := lz.DecodeStream(container)
		if err != nil {
			t.Fatalf("%s: DecodeStream on own encoding: %v", label, err)
		}
		text, err := lz.Decode(c)
		if err != nil {
			t.Fatalf("%s: Decode: %v", label, err)
		}
		var want []Event
		for i, mm := range aut.Match(text) {
			if mm.Length > 0 {
				want = append(want, Event{Pos: int64(i), PatternID: mm.PatternID, Length: mm.Length})
			}
		}
		// Both modes against each other and the ledger (runScanner), then
		// the token mode against the oracle.
		got, st := runScanner(t, aut, container, Config{})
		assertSameEvents(t, label, got, want)
		assertAccounting(t, label, st)
	}

	f.Fuzz(func(t *testing.T, data []byte, tokenSpec []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		text := make([]byte, len(data))
		for i, v := range data {
			text[i] = 'a' + v%3
		}

		// Source 1: a genuine parse of the derived text.
		var enc bytes.Buffer
		if err := lz.EncodeStream(&enc, lz.Compress(m, text)); err != nil {
			t.Fatalf("EncodeStream: %v", err)
		}
		check(t, "compressed", enc.Bytes())

		// Source 2: raw tokens decoded from the spec bytes. Each pair of
		// bytes becomes a token: literal when the produced text is empty or
		// the selector says so; otherwise a copy with source and length
		// folded into the currently valid ranges (lengths up to 4× the
		// produced prefix exercise deep self-reference).
		if len(tokenSpec) > 2048 {
			tokenSpec = tokenSpec[:2048]
		}
		var toks []lz.Token
		n := 0
		for i := 0; i+1 < len(tokenSpec) && n < 1<<16; i += 2 {
			a, b := tokenSpec[i], tokenSpec[i+1]
			if n == 0 || a%3 == 0 {
				toks = append(toks, lz.Token{Lit: 'a' + b%3})
				n++
				continue
			}
			src := int32(int(a) * 31 % n)
			l := int32(int(b)%(4*n) + 1)
			toks = append(toks, lz.Token{Src: src, Len: l})
			n += int(l)
		}
		if len(toks) == 0 {
			return
		}
		enc.Reset()
		if err := lz.EncodeStream(&enc, lz.Compressed{N: n, Tokens: toks}); err != nil {
			t.Fatalf("EncodeStream(raw): %v", err)
		}
		check(t, "raw-tokens", enc.Bytes())
	})
}

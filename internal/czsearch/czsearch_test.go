package czsearch

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/stream"
	"repro/internal/textgen"
)

func pats(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func mustAut(t testing.TB, patterns [][]byte) *dense.Automaton {
	t.Helper()
	a, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatalf("dense.Compile: %v", err)
	}
	return a
}

// encode wraps a token slice in an LZ1R1 container. The stream need not be
// an optimal parse — any structurally valid token sequence is a legal
// container, which is how the adversarial shapes below are built.
func encode(t testing.TB, c lz.Compressed) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lz.EncodeStream(&buf, c); err != nil {
		t.Fatalf("EncodeStream: %v", err)
	}
	return buf.Bytes()
}

// compress produces a genuine lz.Compress container for text.
func compress(t testing.TB, text []byte) []byte {
	t.Helper()
	m := pram.NewSequential()
	return encode(t, lz.Compress(m, text))
}

// bothModes are the two forced modes every container of this suite goes
// through; Run's own choice between them is pinned by TestModeFromHeader.
var bothModes = []scanMode{modeTokens, modeExpanded}

func (m scanMode) String() string {
	return [...]string{"header", "tokens", "expanded"}[m]
}

// forced builds a scanner pinned to one mode.
func forced(aut *dense.Automaton, cfg Config, mode scanMode) *Scanner {
	s := NewScanner(aut, cfg)
	s.force = mode
	return s
}

// collect runs s over a container and returns what it emitted.
func collect(t testing.TB, s *Scanner, container []byte) ([]Event, Stats, error) {
	t.Helper()
	dec, err := lz.NewDecoder(bytes.NewReader(container))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	var evs []Event
	st, err := s.Run(context.Background(), dec, func(e Event) error {
		evs = append(evs, e)
		return nil
	})
	return evs, st, err
}

// runScanner scans a container in BOTH modes, requires them to agree event
// for event and on everything the ledger says about the container, and
// returns the token mode's events and stats (the ones with savings to
// assert on). Callers compare the events with the oracle.
func runScanner(t testing.TB, aut *dense.Automaton, container []byte, cfg Config) ([]Event, Stats) {
	t.Helper()
	evs, st, err := collect(t, forced(aut, cfg, modeTokens), container)
	if err != nil {
		t.Fatalf("Scanner.Run (tokens): %v", err)
	}
	xevs, xst, err := collect(t, forced(aut, cfg, modeExpanded), container)
	if err != nil {
		t.Fatalf("Scanner.Run (expanded): %v", err)
	}
	if st.Expanded || !xst.Expanded {
		t.Fatalf("Stats.Expanded = %v in token mode, %v in expanded mode", st.Expanded, xst.Expanded)
	}
	if len(xevs) != len(evs) {
		t.Fatalf("expanded mode: %d events, token mode %d", len(xevs), len(evs))
	}
	for i := range evs {
		if xevs[i] != evs[i] {
			t.Fatalf("expanded mode: event %d = %+v, token mode %+v", i, xevs[i], evs[i])
		}
	}
	if xst.BytesTouched != xst.BytesRepresented || xst.SyncSkipped != 0 || xst.MemoBytes != 0 || xst.MemoHits != 0 {
		t.Fatalf("expanded mode ledger: %+v, want touched == represented and nothing skipped", xst)
	}
	if xst.Tokens != st.Tokens || xst.Literals != st.Literals || xst.Copies != st.Copies ||
		xst.BytesRepresented != st.BytesRepresented || xst.Events != st.Events {
		t.Fatalf("modes disagree about the container: expanded %+v, tokens %+v", xst, st)
	}
	if xst.MaxResident > st.MaxResident {
		t.Fatalf("expanded mode retained %d bytes, token mode %d", xst.MaxResident, st.MaxResident)
	}
	return evs, st
}

// oracleEvents is decompress-then-match on the same automaton: the exact
// event stream the scanner must reproduce.
func oracleEvents(t testing.TB, aut *dense.Automaton, container []byte) ([]Event, []byte) {
	t.Helper()
	c, err := lz.DecodeStream(container)
	if err != nil {
		t.Fatalf("DecodeStream: %v", err)
	}
	text, err := lz.Decode(c)
	if err != nil {
		t.Fatalf("lz.Decode: %v", err)
	}
	var evs []Event
	for i, m := range aut.Match(text) {
		if m.Length > 0 {
			evs = append(evs, Event{Pos: int64(i), PatternID: m.PatternID, Length: m.Length})
		}
	}
	return evs, text
}

func assertSameEvents(t testing.TB, label string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, oracle has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, oracle %+v", label, i, got[i], want[i])
		}
	}
}

// assertAccounting pins the byte-accounting invariant: every represented
// byte is touched, sync-skipped, or memo-replayed — exactly once.
func assertAccounting(t testing.TB, label string, st Stats) {
	t.Helper()
	if st.BytesTouched+st.SyncSkipped+st.MemoBytes != st.BytesRepresented {
		t.Fatalf("%s: touched %d + skipped %d + memo %d != represented %d",
			label, st.BytesTouched, st.SyncSkipped, st.MemoBytes, st.BytesRepresented)
	}
}

// TestScannerEquivalence is the acceptance-criterion suite over genuine
// lz.Compress containers: czsearch output byte-identical to
// decompress-then-match across corpus shapes.
func TestScannerEquivalence(t *testing.T) {
	gen := textgen.New(41)
	dictionaries := [][][]byte{
		pats("he", "she", "his", "hers"),
		pats("a", "aa", "aaa", "ab", "abab", "bb"),
		gen.Dictionary(32, 1, 10, 4),
	}
	corpora := []struct {
		name string
		text []byte
	}{
		{"empty", nil},
		{"short", []byte("ushers said shes here")},
		{"uniform", gen.Uniform(4096, 4)},
		{"repetitive", gen.Repetitive(8192, 64, 0.02)},
		{"runs", bytes.Repeat([]byte("aaaaaaab"), 512)},
		{"dna", gen.DNA(4096)},
	}
	for di, patterns := range dictionaries {
		aut := mustAut(t, patterns)
		for _, c := range corpora {
			label := fmt.Sprintf("dict%d/%s", di, c.name)
			container := compress(t, c.text)
			want, _ := oracleEvents(t, aut, container)
			got, st := runScanner(t, aut, container, Config{})
			assertSameEvents(t, label, got, want)
			assertAccounting(t, label, st)
			if st.BytesRepresented != int64(len(c.text)) {
				t.Fatalf("%s: represented %d bytes, text has %d", label, st.BytesRepresented, len(c.text))
			}
			if st.Events != int64(len(got)) {
				t.Fatalf("%s: stats.Events %d != %d emitted", label, st.Events, len(got))
			}
		}
	}
}

// TestScannerSublinearOnRepetitive pins the point of the subsystem: on a
// highly compressible corpus the automaton consumes far fewer bytes than
// the stream represents.
func TestScannerSublinearOnRepetitive(t *testing.T) {
	gen := textgen.New(7)
	text := gen.Repetitive(1<<16, 64, 0.01)
	aut := mustAut(t, pats("abac", "cab", "bb", "abra"))
	container := compress(t, text)
	want, _ := oracleEvents(t, aut, container)
	got, st := runScanner(t, aut, container, Config{})
	assertSameEvents(t, "repetitive", got, want)
	if st.BytesTouched*2 > st.BytesRepresented {
		t.Fatalf("touched %d of %d represented bytes — no compressed-domain saving",
			st.BytesTouched, st.BytesRepresented)
	}
}

// TestScannerAdversarialTokens hand-builds the container shapes the issue
// calls out: overlapping self-referential copies, matches spanning three or
// more tokens, window-edge copies, and repeated tokens (memo hits).
func TestScannerAdversarialTokens(t *testing.T) {
	lits := func(s string) []lz.Token {
		out := make([]lz.Token, len(s))
		for i := range s {
			out[i] = lz.Token{Lit: s[i]}
		}
		return out
	}
	cat := func(groups ...[]lz.Token) []lz.Token {
		var out []lz.Token
		for _, g := range groups {
			out = append(out, g...)
		}
		return out
	}
	cases := []struct {
		name     string
		patterns [][]byte
		tokens   []lz.Token
		n        int
	}{
		{
			// One literal then a length-40 period-1 self-referential run:
			// the automaton must sync within maxPatLen bytes and replay the
			// rest, and "aaaa" occurrences span the token boundary.
			name:     "selfref-run",
			patterns: pats("aaaa", "aa"),
			tokens:   cat(lits("a"), []lz.Token{{Src: 0, Len: 40}}),
			n:        41,
		},
		{
			// Period-3 self-referential copy overlapping its own output.
			name:     "selfref-period3",
			patterns: pats("abcabc", "ca"),
			tokens:   cat(lits("abc"), []lz.Token{{Src: 0, Len: 30}}),
			n:        33,
		},
		{
			// A long pattern assembled from ≥3 tokens: "needle" split as
			// "ne" + copy("e") + lits("dle") never appears inside one token.
			name:     "match-spans-3-tokens",
			patterns: pats("needle", "edl"),
			tokens:   cat(lits("ne"), []lz.Token{{Src: 1, Len: 1}}, lits("dle")),
			n:        6,
		},
		{
			// Pattern spanning four tokens, with copies on both sides.
			name:     "match-spans-4-tokens",
			patterns: pats("abcabcabc"),
			tokens: cat(lits("abc"), []lz.Token{{Src: 0, Len: 3}},
				[]lz.Token{{Src: 0, Len: 2}}, lits("c"), []lz.Token{{Src: 0, Len: 9}}),
			n: 18,
		},
		{
			// Repeated identical tokens from the same entry state: memo
			// territory. "xy" * 32 via the same (src=0,len=2) token.
			name:     "repeated-tokens",
			patterns: pats("yx", "xyxy"),
			tokens: cat(lits("xy"), []lz.Token{
				{Src: 0, Len: 2}, {Src: 0, Len: 2}, {Src: 0, Len: 2}, {Src: 0, Len: 2},
				{Src: 0, Len: 2}, {Src: 0, Len: 2}, {Src: 0, Len: 2}, {Src: 0, Len: 2},
			}),
			n: 18,
		},
		{
			// Copy whose source starts at offset 0 — the left edge of any
			// retained window — plus a copy reaching exactly to the frontier.
			name:     "edge-copies",
			patterns: pats("abab", "bab"),
			tokens:   cat(lits("ab"), []lz.Token{{Src: 0, Len: 2}}, []lz.Token{{Src: 2, Len: 2}}, []lz.Token{{Src: 5, Len: 1}}),
			n:        7,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			aut := mustAut(t, tc.patterns)
			container := encode(t, lz.Compressed{N: tc.n, Tokens: tc.tokens})
			want, text := oracleEvents(t, aut, container)
			if len(text) != tc.n {
				t.Fatalf("bad test case: decodes to %d bytes, want %d", len(text), tc.n)
			}
			got, st := runScanner(t, aut, container, Config{})
			assertSameEvents(t, tc.name, got, want)
			assertAccounting(t, tc.name, st)
			if tc.name == "repeated-tokens" && st.MemoHits == 0 {
				t.Fatalf("repeated identical tokens produced no memo hits (misses %d)", st.MemoMisses)
			}
		})
	}
}

// TestScannerWindowed pins the bounded-history mode: results stay identical
// while the window is respected, the resident history stays bounded, and a
// too-far back-reference fails with the typed sentinel.
func TestScannerWindowed(t *testing.T) {
	gen := textgen.New(13)
	text := gen.Repetitive(1<<15, 48, 0.02)
	aut := mustAut(t, pats("abra", "cad", "bb"))
	container := compress(t, text)

	// lz.Compress can reference arbitrarily far back; find a window that
	// this particular container happens to respect from its decode stats.
	uc, err := stream.NewUncompressor(bytes.NewReader(container), stream.UncompressConfig{})
	if err != nil {
		t.Fatalf("NewUncompressor: %v", err)
	}
	u, err := uc.Run(context.Background(), bytes.NewBuffer(nil))
	if err != nil {
		t.Fatalf("Uncompressor.Run: %v", err)
	}
	win := int(u.FarthestBack)

	want, _ := oracleEvents(t, aut, container)
	got, st := runScanner(t, aut, container, Config{Window: win})
	assertSameEvents(t, "windowed", got, want)
	if st.MaxResident > 2*win+1 {
		t.Fatalf("resident history %d exceeds 2×window %d", st.MaxResident, 2*win)
	}

	// A window smaller than the farthest back-reference must surface
	// ErrWindowExceeded, not wrong output.
	small := win / 4
	if small < 1 {
		small = 1
	}
	for _, mode := range bothModes {
		_, _, err = collect(t, forced(aut, Config{Window: small}, mode), container)
		if !errors.Is(err, ErrWindowExceeded) {
			t.Fatalf("%v, window %d: err = %v, want ErrWindowExceeded", mode, small, err)
		}
	}
}

// TestScannerTrimsMidRun: a window far below the expanded mode's feed run,
// on a container whose copies stay inside it — the history is cut many times
// during the run, also while bytes are still waiting for the cursor, and
// nothing is lost in either mode.
func TestScannerTrimsMidRun(t *testing.T) {
	aut := mustAut(t, pats("ab", "bcb", "caa", "aaaa"))
	toks := []lz.Token{{Lit: 'a'}, {Lit: 'b'}, {Lit: 'c'}}
	n := 3
	for i := 0; n < 40000; i++ {
		l := 1 + (i*7)%23
		back := 1 + (i*5)%min(n, 60)
		toks = append(toks, lz.Token{Src: int32(n - back), Len: int32(l)})
		n += l
		if i%2 == 0 {
			toks = append(toks, lz.Token{Lit: 'a' + byte((i*i/2+i/14)%3)})
			n++
		}
	}
	container := encode(t, lz.Compressed{N: n, Tokens: toks})
	want, _ := oracleEvents(t, aut, container)
	if len(want) == 0 {
		t.Fatal("bad test case: no matches")
	}
	got, st := runScanner(t, aut, container, Config{Window: 64})
	assertSameEvents(t, "window 64", got, want)
	if st.MaxResident > 2*64+23 {
		t.Fatalf("resident history %d with window 64", st.MaxResident)
	}
}

// TestScannerRejectsCorrupt pins typed failures: out-of-range sources, N
// mismatches, and output caps — never silent wrong output.
func TestScannerRejectsCorrupt(t *testing.T) {
	aut := mustAut(t, pats("ab"))
	for _, mode := range bothModes {
		run := func(c lz.Compressed, cfg Config) error {
			_, _, err := collect(t, forced(aut, cfg, mode), encode(t, c))
			return err
		}
		if err := run(lz.Compressed{N: 3, Tokens: []lz.Token{{Lit: 'a'}, {Src: 5, Len: 2}}}, Config{}); err == nil {
			t.Fatalf("%v: future source accepted", mode)
		}
		if err := run(lz.Compressed{N: 9, Tokens: []lz.Token{{Lit: 'a'}, {Src: 0, Len: 3}}}, Config{}); err == nil {
			t.Fatalf("%v: N mismatch accepted", mode)
		}
		// The cap falls in the middle of the copy token.
		err := run(lz.Compressed{N: 100, Tokens: []lz.Token{{Lit: 'a'}, {Src: 0, Len: 99}}}, Config{MaxOutput: 10})
		if !errors.Is(err, ErrOutputExceeded) {
			t.Fatalf("%v: output cap: err = %v, want ErrOutputExceeded", mode, err)
		}
	}
}

// rawContainer hand-encodes a container whose header need not tell the
// truth about the tokens that follow.
func rawContainer(n, count uint64, toks []lz.Token) []byte {
	b := binary.AppendUvarint(binary.AppendUvarint([]byte(lz.Magic), n), count)
	for _, t := range toks {
		if t.IsLiteral() {
			b = append(b, 0, t.Lit)
		} else {
			b = binary.AppendUvarint(binary.AppendUvarint(append(b, 1), uint64(t.Src)), uint64(t.Len))
		}
	}
	return b
}

// TestModeFromHeader pins Run's own choice: the mean token length N/count of
// the header, expanded strictly below the cutover.
func TestModeFromHeader(t *testing.T) {
	aut := mustAut(t, pats("aaaa", "aa"))
	for _, tc := range []struct {
		last     int32 // length of the tenth token
		n        int
		expanded bool
	}{
		{38, 319, true},  // mean 31.9
		{39, 320, false}, // mean 32.0
	} {
		toks := []lz.Token{{Lit: 'a'}}
		for i := 0; i < 8; i++ {
			toks = append(toks, lz.Token{Src: 0, Len: 35})
		}
		toks = append(toks, lz.Token{Src: 0, Len: tc.last})
		container := encode(t, lz.Compressed{N: tc.n, Tokens: toks})
		want, _ := oracleEvents(t, aut, container)
		got, st, err := collect(t, NewScanner(aut, Config{}), container)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if st.Expanded != tc.expanded {
			t.Fatalf("n=%d over 10 tokens: Expanded = %v, want %v", tc.n, st.Expanded, tc.expanded)
		}
		assertSameEvents(t, fmt.Sprintf("n=%d", tc.n), got, want)
		assertAccounting(t, fmt.Sprintf("n=%d", tc.n), st)
	}
}

// TestLyingHeader: the token count in the header is untrusted input. One
// that is wrong — in the direction that picks the expanded mode or in the
// one that picks the token scanner — and a container cut short fail the run
// like they fail lz.DecodeStream, after emitting nothing but true events.
func TestLyingHeader(t *testing.T) {
	aut := mustAut(t, pats("abcabc", "ca", "bb"))
	toks := []lz.Token{{Lit: 'a'}, {Lit: 'b'}, {Lit: 'c'}}
	n := 3
	for i := 0; i < 40; i++ {
		toks = append(toks, lz.Token{Src: int32(i % 3), Len: 40})
		n += 40
	}
	honest := rawContainer(uint64(n), uint64(len(toks)), toks)
	want, _ := oracleEvents(t, aut, honest)
	isPrefix := func(label string, got []Event) {
		t.Helper()
		if len(got) > len(want) {
			t.Fatalf("%s: %d events, the text has %d", label, len(got), len(want))
		}
		assertSameEvents(t, label, got, want[:len(got)])
	}
	for _, tc := range []struct {
		name      string
		container []byte
		expanded  bool
	}{
		{"count-too-large", rawContainer(uint64(n), uint64(n), toks), true},
		{"count-too-small", rawContainer(uint64(n), 2, toks), false},
		{"truncated", honest[:len(honest)-7], false},
	} {
		if _, err := lz.DecodeStream(tc.container); err == nil {
			t.Fatalf("%s: bad test case, DecodeStream accepts it", tc.name)
		}
		got, st, err := collect(t, NewScanner(aut, Config{}), tc.container)
		if err == nil {
			t.Fatalf("%s: Run accepted the container", tc.name)
		}
		if st.Expanded != tc.expanded {
			t.Fatalf("%s: Expanded = %v, want %v", tc.name, st.Expanded, tc.expanded)
		}
		isPrefix(tc.name, got)
		for _, mode := range bothModes {
			got, _, err := collect(t, forced(aut, Config{}, mode), tc.container)
			if err == nil {
				t.Fatalf("%s/%v: Run accepted the container", tc.name, mode)
			}
			isPrefix(fmt.Sprintf("%s/%v", tc.name, mode), got)
		}
	}
}

// TestScannerSinkAbort pins that a sink error stops the scan and surfaces.
func TestScannerSinkAbort(t *testing.T) {
	aut := mustAut(t, pats("ab"))
	container := compress(t, bytes.Repeat([]byte("ab"), 200))
	for _, mode := range bothModes {
		dec, err := lz.NewDecoder(bytes.NewReader(container))
		if err != nil {
			t.Fatalf("NewDecoder: %v", err)
		}
		boom := errors.New("sink says no")
		seen := 0
		_, err = forced(aut, Config{}, mode).Run(context.Background(), dec, func(Event) error {
			seen++
			if seen == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("%v: err = %v, want sink error", mode, err)
		}
		if seen != 3 {
			t.Fatalf("%v: sink called %d times after aborting at 3", mode, seen)
		}
	}
}

// TestScannerReuse pins pooling semantics: the same Scanner produces
// identical output across Runs over different containers while it
// alternates between the two modes (and, at the end, picks its own), with no
// state (history, memo, pending events, a cursor) leaking between them.
func TestScannerReuse(t *testing.T) {
	gen := textgen.New(23)
	aut := mustAut(t, pats("ab", "bc", "abc"))
	s := NewScanner(aut, Config{})
	for trial, mode := range []scanMode{modeTokens, modeExpanded, modeTokens, modeExpanded, modeExpanded, modeTokens, modeFromHeader, modeFromHeader} {
		text := gen.Repetitive(2048+511*trial, 32, 0.05)
		if trial == 7 {
			text = gen.Uniform(3000, 3) // short tokens: the header picks expanded
		}
		container := compress(t, text)
		want, _ := oracleEvents(t, aut, container)
		s.force = mode
		got, st, err := collect(t, s, container)
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		label := fmt.Sprintf("trial %d (%v)", trial, mode)
		assertSameEvents(t, label, got, want)
		assertAccounting(t, label, st)
		if mode != modeFromHeader && st.Expanded != (mode == modeExpanded) {
			t.Fatalf("%s: Expanded = %v", label, st.Expanded)
		}
		if trial == 7 && !st.Expanded {
			t.Fatalf("%s: %d tokens for %d bytes did not expand", label, st.Tokens, st.BytesRepresented)
		}
	}
}

// TestFallbackEquivalence pins the tree-walk engine: the fused
// uncompress+match pipeline emits the same events as the dense scanner and
// reports full-cost accounting (touched == represented).
func TestFallbackEquivalence(t *testing.T) {
	gen := textgen.New(31)
	patterns := pats("he", "she", "hers", "aba")
	aut := mustAut(t, patterns)
	m := pram.New(2)
	defer m.Close()
	d := core.Preprocess(m, patterns, core.Options{Seed: 3})

	for _, text := range [][]byte{
		[]byte("ushers say hershel is his"),
		gen.Repetitive(8192, 64, 0.02),
	} {
		container := compress(t, text)
		want, _ := oracleEvents(t, aut, container)

		f, err := NewFallback(bytes.NewReader(container), Config{})
		if err != nil {
			t.Fatalf("NewFallback: %v", err)
		}
		if f.N() != len(text) {
			t.Fatalf("N = %d, want %d", f.N(), len(text))
		}
		var got []Event
		st, err := f.Run(context.Background(), stream.DictMatcher{Dict: d, M: m}, stream.Config{SegmentBytes: 1024},
			func(e Event) error {
				got = append(got, e)
				return nil
			})
		if err != nil {
			t.Fatalf("Fallback.Run: %v", err)
		}
		assertSameEvents(t, "fallback", got, want)
		if st.BytesTouched != st.BytesRepresented || st.BytesRepresented != int64(len(text)) {
			t.Fatalf("fallback accounting: touched %d, represented %d, text %d",
				st.BytesTouched, st.BytesRepresented, len(text))
		}
	}

	// Non-container input fails at construction with the typed sentinel.
	if _, err := NewFallback(bytes.NewReader([]byte("not a container")), Config{}); !errors.Is(err, lz.ErrNotLZ1R1) {
		t.Fatalf("non-container: err = %v, want lz.ErrNotLZ1R1", err)
	}
}

// BenchmarkModes re-measures the crossover table beside
// expandBelowMeanToken: the same container through the token scanner and
// through the expanded mode, over containers whose mean token length runs
// from 3 B (uniform text) to ≈ 140 B (a 256-byte block with 0.5 % point
// mutations), for three pattern-length caps over a dictionary that hardly
// ever matches — the regime of the table — and once over a dictionary half
// cut from the text, where the token scanner also pays for replaying every
// occurrence and the crossover moves up. Compare the MB/s columns of
// .../tokens and .../expanded; `go test -bench Modes -count 9 -cpu 1`.
func BenchmarkModes(b *testing.B) {
	const n = 128 << 10
	m := pram.NewSequential()
	gen := textgen.New(1995)
	texts := [][]byte{gen.Uniform(n, 26)}
	for _, mutation := range []float64{0.3, 0.1, 0.06, 0.04, 0.02, 0.005} {
		texts = append(texts, gen.Repetitive(n, 256, mutation))
	}
	for _, dict := range []struct {
		maxPat  int
		planted int // patterns cut from the text, of 64
	}{{6, 0}, {16, 0}, {64, 0}, {16, 32}} {
		for _, text := range texts {
			patterns := gen.Dictionary(64-dict.planted, dict.maxPat/2, dict.maxPat, 26)
			for i := 0; i < dict.planted; i++ {
				at := (i*4099 + 17) % (n - dict.maxPat)
				patterns = append(patterns, text[at:at+dict.maxPat/2+i%(dict.maxPat/2+1)])
			}
			aut := mustAut(b, patterns)
			parse := lz.CompressSequential(m, text)
			container := encode(b, parse)
			mean := float64(n) / float64(len(parse.Tokens))
			for _, mode := range bothModes {
				name := fmt.Sprintf("maxpat=%d/planted=%d/mean=%.1f/%v", dict.maxPat, dict.planted, mean, mode)
				b.Run(name, func(b *testing.B) {
					s := forced(aut, Config{}, mode)
					b.SetBytes(n)
					for i := 0; i < b.N; i++ {
						dec, err := lz.NewDecoder(bytes.NewReader(container))
						if err != nil {
							b.Fatal(err)
						}
						if _, err := s.Run(context.Background(), dec, func(Event) error { return nil }); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

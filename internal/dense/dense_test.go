package dense

import (
	"errors"
	"testing"

	"repro/internal/ahocorasick"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/textgen"
)

// oracleMatch computes the reference M[i] output (longest pattern starting
// at each position) with the naive map-based Aho–Corasick baseline.
func oracleMatch(patterns [][]byte, text []byte) []core.Match {
	ac := ahocorasick.New(patterns)
	ids := ac.Match(text)
	out := make([]core.Match, len(text))
	for i, id := range ids {
		if id < 0 {
			out[i] = core.None
		} else {
			out[i] = core.Match{PatternID: id, Length: ac.PatternLen(id)}
		}
	}
	return out
}

func mustCompile(t *testing.T, patterns [][]byte) *Automaton {
	t.Helper()
	a, err := Compile(patterns, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return a
}

func assertSameMatches(t *testing.T, want, got []core.Match, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: position %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestEquivalence pins the acceptance-criterion property: dense matching is
// bit-identical to both the naive Aho–Corasick oracle and the paper's
// tree-walk matcher across dictionary/text shapes, including overlapping and
// nested patterns.
func TestEquivalence(t *testing.T) {
	for _, tc := range equivalenceCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			a := mustCompile(t, tc.patterns)
			got := a.Match(tc.text)
			assertSameMatches(t, oracleMatch(tc.patterns, tc.text), got, "vs ahocorasick")

			m := pram.NewSequential()
			d := core.Preprocess(m, tc.patterns, core.Options{Seed: 3})
			assertSameMatches(t, d.MatchText(m, tc.text), got, "vs core")
		})
	}
}

// TestEquivalenceRandom sweeps random dictionaries and texts across alphabet
// sizes, including the sigma the NCA auto-threshold treats as small.
func TestEquivalenceRandom(t *testing.T) {
	gen := textgen.New(1789)
	for _, sigma := range []int{2, 4, 26} {
		for trial := 0; trial < 8; trial++ {
			patterns := gen.Dictionary(12, 1, 9, sigma)
			text := gen.Uniform(700, sigma)
			a := mustCompile(t, patterns)
			got := a.Match(text)
			assertSameMatches(t, oracleMatch(patterns, text), got, "vs ahocorasick")
		}
	}
}

// TestDuplicatePatterns: duplicates collapse onto the first id in every
// implementation.
func TestDuplicatePatterns(t *testing.T) {
	patterns := toBytes("dup", "x", "dup", "dupdup")
	text := []byte("adupdupb")
	a := mustCompile(t, patterns)
	assertSameMatches(t, oracleMatch(patterns, text), a.Match(text), "duplicates")
}

// TestScanOccurrences checks the occurrence-level API: every overlapping
// occurrence is reported exactly once, at its end position, longest first.
func TestScanOccurrences(t *testing.T) {
	patterns := toBytes("aa", "a")
	a := mustCompile(t, patterns)
	hits := a.FindAll([]byte("aaa"))
	want := []Hit{
		{Pat: 1, From: 0, To: 1},
		{Pat: 0, From: 0, To: 2}, // longest first at end position 2
		{Pat: 1, From: 1, To: 2},
		{Pat: 0, From: 1, To: 3},
		{Pat: 1, From: 2, To: 3},
	}
	if len(hits) != len(want) {
		t.Fatalf("got %d hits %v, want %d", len(hits), hits, len(want))
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hit %d: got %+v, want %+v", i, hits[i], want[i])
		}
	}
}

// TestScanZeroAlloc pins the zero-allocation contract of the hot path.
func TestScanZeroAlloc(t *testing.T) {
	gen := textgen.New(7)
	patterns := gen.Dictionary(16, 2, 6, 4)
	text := gen.Uniform(4096, 4)
	a := mustCompile(t, patterns)
	var sink int64
	allocs := testing.AllocsPerRun(10, func() {
		_ = a.Scan(text, func(pat int32, from, to int) error {
			sink += int64(pat) + int64(from) + int64(to)
			return nil
		})
	})
	if allocs != 0 {
		t.Fatalf("Scan allocated %.1f times per run, want 0", allocs)
	}
	out := make([]core.Match, len(text))
	allocs = testing.AllocsPerRun(10, func() { a.MatchInto(text, out) })
	if allocs != 0 {
		t.Fatalf("MatchInto allocated %.1f times per run, want 0", allocs)
	}
}

// TestScanAbort: an emit error stops the scan and is returned unchanged.
func TestScanAbort(t *testing.T) {
	a := mustCompile(t, toBytes("a"))
	stop := errors.New("stop")
	calls := 0
	err := a.Scan([]byte("aaaa"), func(pat int32, from, to int) error {
		calls++
		return stop
	})
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want stop after 1 call", err, calls)
	}
}

// TestTableBudget: a compile whose table would blow the byte budget is
// refused with the typed error, so serving falls back to the tree walk.
func TestTableBudget(t *testing.T) {
	gen := textgen.New(11)
	patterns := gen.Dictionary(64, 8, 16, 26)
	if _, err := Compile(patterns, Options{MaxTableBytes: 64}); !errors.Is(err, ErrTableTooLarge) {
		t.Fatalf("err=%v, want ErrTableTooLarge", err)
	}
	if _, err := Compile(patterns, Options{}); err != nil {
		t.Fatalf("default budget refused a tiny dictionary: %v", err)
	}
}

// TestSnapshotRoundTrip: Encode → Restore preserves matching behavior
// bit-for-bit, and the encoding is deterministic.
func TestSnapshotRoundTrip(t *testing.T) {
	gen := textgen.New(23)
	patterns := gen.Dictionary(20, 1, 10, 6)
	text := gen.Uniform(2000, 6)
	a := mustCompile(t, patterns)
	payload := a.Encode()
	if again := mustCompile(t, patterns).Encode(); string(again) != string(payload) {
		t.Fatal("Encode is not deterministic across compiles")
	}
	b, err := Restore(payload, patterns)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	assertSameMatches(t, a.Match(text), b.Match(text), "restored")
	st, err := PayloadStats(payload)
	if err != nil {
		t.Fatalf("PayloadStats: %v", err)
	}
	if st != a.Stats() {
		t.Fatalf("payload stats %+v != automaton stats %+v", st, a.Stats())
	}
}

// TestRestoreRejectsCorruption: every byte-level corruption of a valid
// payload either restores to an automaton that still matches correctly (a
// benign flip — impossible here given full validation plus exact-length
// framing, but the property we actually need is weaker) or returns an error;
// it never panics or builds an automaton that indexes out of bounds.
func TestRestoreRejectsCorruption(t *testing.T) {
	patterns := toBytes("abc", "bc", "cab")
	a := mustCompile(t, patterns)
	payload := a.Encode()
	text := []byte("abcabcab")

	if _, err := Restore(payload[:len(payload)-1], patterns); err == nil {
		t.Fatal("truncated payload restored")
	}
	if _, err := Restore(payload, patterns[:2]); err == nil {
		t.Fatal("pattern-count mismatch restored")
	}
	for i := 0; i < len(payload); i++ {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0x41
		b, err := Restore(mut, patterns)
		if err != nil {
			continue
		}
		// Structurally valid mutant: must still be safe to run.
		_ = b.Match(text)
	}
}

// equivCase is one dictionary/text pair of the equivalence corpus.
type equivCase struct {
	name     string
	patterns [][]byte
	text     []byte
}

// equivalenceCorpus is the hand-picked part of the corpus every dense
// matcher is held to: TestEquivalence runs MatchInto over it against both
// oracles, TestCursorEquivalence every chunking of it against MatchInto.
func equivalenceCorpus() []equivCase {
	return []equivCase{
		{"classic", toBytes("he", "she", "his", "hers"), []byte("ushers say hershel is his")},
		{"nested", toBytes("a", "aa", "aaa", "aaaa"), []byte("aaaaaabaaaa")},
		{"overlapping", toBytes("abab", "baba", "ab", "ba"), []byte("abababababa")},
		{"suffix-chain", toBytes("x", "yx", "zyx", "wzyx"), []byte("wzyxwzyxzyx")},
		{"no-match", toBytes("qqq", "zzz"), []byte("abcdefgh")},
		{"full-alphabet", [][]byte{allBytes(), []byte{0}, []byte{255}}, append(allBytes(), allBytes()...)},
		{"single-byte-dict", toBytes("k"), []byte("kkkkkk")},
		{"duplicates", toBytes("dup", "x", "dup", "dupdup"), []byte("adupdupb")},
		{"empty-text", toBytes("ab", "abc"), nil},
		{"shorter-than-longest", toBytes("ab", "abcdefgh"), []byte("abcab")},
	}
}

func toBytes(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func allBytes() []byte {
	out := make([]byte, 256)
	for i := range out {
		out[i] = byte(i)
	}
	return out
}

func BenchmarkScan(b *testing.B) {
	gen := textgen.New(5)
	patterns := gen.Dictionary(64, 4, 12, 26)
	text := gen.Uniform(1<<20, 26)
	a, err := Compile(patterns, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		_ = a.Scan(text, func(pat int32, from, to int) error {
			sink++
			return nil
		})
	}
	_ = sink
}

func BenchmarkMatchInto(b *testing.B) {
	gen := textgen.New(5)
	patterns := gen.Dictionary(64, 4, 12, 26)
	text := gen.Uniform(1<<20, 26)
	a, err := Compile(patterns, Options{})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]core.Match, len(text))
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MatchInto(text, out)
	}
}

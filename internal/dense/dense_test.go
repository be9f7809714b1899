package dense

import (
	"bytes"
	"encoding/binary"
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
// it never panics or builds an automaton that indexes out of bounds. A
// target that is out of range but whose product with the width wraps into
// range is refused, so the range check comes before the multiply; and a
// payload in the numbering older encoders wrote is renumbered, not refused.
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

	// Width 4: target 2³⁰ times 4 is 2³² — 0, the root, in 32-bit arithmetic.
	if a.width != 4 {
		t.Fatalf("width %d; the wrap below assumes 4", a.width)
	}
	wrap := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(wrap[payloadHeaderBytes+4*5:], 1<<30)
	if _, err := Restore(wrap, patterns); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("a target that wraps to the root under the multiply: err = %v, want ErrBadPayload", err)
	}

	old := encodeAs(a, parentIDs(a, patterns))
	if bytes.Equal(old, payload) {
		t.Fatal("the older numbering coincides with Compile's here; the check below tests nothing")
	}
	b, err := Restore(old, patterns)
	if err != nil {
		t.Fatalf("a payload in the older numbering was refused: %v", err)
	}
	assertSameMatches(t, a.Match(text), b.Match(text), "renumbered")
}

// TestRestoreOlderNumbering: encoders before the row-offset layout numbered
// states in trie-creation order, outputs anywhere. Such payloads — the
// exact bytes one wrote for the classic dictionary, and Compile's automata
// re-encoded in that numbering and in plain BFS order — restore to
// automata that match identically. From BFS order, the renumbering lands on
// Compile's ids exactly.
func TestRestoreOlderNumbering(t *testing.T) {
	classic := toBytes("he", "she", "his", "hers")
	text := []byte("ushers say hershel is his; she shushes her")
	b, err := Restore(classicOlderPayload(), classic)
	if err != nil {
		t.Fatalf("Restore of an older encoder's bytes: %v", err)
	}
	a := mustCompile(t, classic)
	assertSameMatches(t, a.Match(text), b.Match(text), "older encoder's bytes")
	if !bytes.Equal(encodeAs(a, parentIDs(a, classic)), classicOlderPayload()) {
		t.Fatal("encodeAs with parentIDs does not reproduce the older encoder's bytes")
	}

	gen := textgen.New(29)
	for trial, patterns := range [][][]byte{classic, gen.Dictionary(40, 1, 9, 5), gen.Dictionary(200, 4, 20, 26)} {
		a := mustCompile(t, patterns)
		text := gen.Uniform(2*blockBytes+500, 5)
		for _, numbering := range []struct {
			name string
			ids  []int32
		}{{"trie order", parentIDs(a, patterns)}, {"bfs order", bfsIDs(a)}} {
			b, err := Restore(encodeAs(a, numbering.ids), patterns)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, numbering.name, err)
			}
			assertSameMatches(t, a.Match(text), b.Match(text), numbering.name)
			if numbering.name == "bfs order" && !bytes.Equal(b.Encode(), a.Encode()) {
				t.Fatalf("trial %d: a BFS-order payload renumbered to other ids than Compile's", trial)
			}
		}
	}
}

// classicOlderPayload is the DENSE payload the encoder before the
// row-offset layout wrote for he/she/his/hers: states in trie-creation
// order (root, h, he, s, sh, she, hi, his, her, hers), so the output states
// 2, 5, 7 and 9 are interleaved with the rest.
func classicOlderPayload() []byte {
	next := []uint32{
		0, 0, 1, 0, 0, 3,
		0, 2, 1, 6, 0, 3,
		0, 0, 1, 0, 8, 3,
		0, 0, 4, 0, 0, 3,
		0, 5, 1, 6, 0, 3,
		0, 0, 1, 0, 8, 3,
		0, 0, 1, 0, 0, 7,
		0, 0, 4, 0, 0, 3,
		0, 0, 1, 0, 0, 9,
		0, 0, 4, 0, 0, 3,
	}
	outOff := []uint32{0, 0, 0, 1, 1, 1, 3, 3, 4, 4, 5}
	outPat := []uint32{0, 1, 0, 2, 3}
	var sym [256]uint16
	for i, c := range []byte("ehirs") {
		sym[c] = uint16(i + 1)
	}
	return rawPayload(10, 6, 4, sym, next, outOff, outPat)
}

func rawPayload(states, width, patterns uint32, sym [256]uint16, arrays ...[]uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, states)
	b = binary.LittleEndian.AppendUint32(b, width)
	b = binary.LittleEndian.AppendUint32(b, patterns)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(arrays[len(arrays)-1])))
	for _, c := range sym {
		b = binary.LittleEndian.AppendUint16(b, c)
	}
	for _, arr := range arrays {
		for _, v := range arr {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	}
	return b
}

// encodeAs encodes a with state s (Compile's id) renamed ids[s].
func encodeAs(a *Automaton, ids []int32) []byte {
	n, w := len(ids), int(a.width)
	byID := make([]int32, n) // payload id -> Compile's id
	for s, id := range ids {
		byID[id] = int32(s)
	}
	var next, outOff, outPat []uint32
	for _, s := range byID {
		for _, t := range a.next[int(s)*w : int(s+1)*w] {
			next = append(next, uint32(ids[a.stateID(t)]))
		}
		outOff = append(outOff, uint32(len(outPat)))
		for _, p := range a.Outputs(s * a.width) {
			outPat = append(outPat, uint32(p))
		}
	}
	outOff = append(outOff, uint32(len(outPat)))
	return rawPayload(uint32(n), uint32(w), uint32(len(a.patLen)), a.symClass, next, outOff, outPat)
}

// parentIDs numbers a's states in the order a trie built by inserting the
// patterns one after another creates them: the walk of each pattern from
// the root follows trie edges only, so first visits are creation order.
func parentIDs(a *Automaton, patterns [][]byte) []int32 {
	ids := make([]int32, a.numStates)
	for i := range ids {
		ids[i] = -1
	}
	ids[0] = 0
	next := int32(1)
	for _, p := range patterns {
		q := int32(0)
		for _, c := range p {
			q = a.Step(q, c)
			if id := a.stateID(q); ids[id] < 0 {
				ids[id] = next
				next++
			}
		}
	}
	return ids
}

// bfsIDs numbers a's states in BFS order from the root, bytes ascending —
// the order of a trie BFS with children in class order, since a transition
// that leaves the trie never reaches a state deeper than its source.
func bfsIDs(a *Automaton) []int32 {
	ids := make([]int32, a.numStates)
	for i := range ids {
		ids[i] = -1
	}
	ids[0] = 0
	order := []int32{0}
	for qi := 0; qi < len(order); qi++ {
		for c := 0; c < 256; c++ {
			if t := a.Step(order[qi], byte(c)); ids[a.stateID(t)] < 0 {
				ids[a.stateID(t)] = int32(len(order))
				order = append(order, t)
			}
		}
	}
	return ids
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

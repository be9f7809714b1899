package dense

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/textgen"
)

// cursorEvent is one emitted (position, match) pair.
type cursorEvent struct {
	pos int64
	m   core.Match
}

// oracleEvents is the reference: internal/ahocorasick's M[i] over the whole
// text, reduced to the positions that carry a match. It shares no code with
// the scan kernel that Feed, MatchInto and Scan all run on.
func oracleEvents(patterns [][]byte, text []byte) []cursorEvent {
	var out []cursorEvent
	for i, m := range oracleMatch(patterns, text) {
		if m.Length > 0 {
			out = append(out, cursorEvent{int64(i), m})
		}
	}
	return out
}

// feedChunks drives a fresh cursor over text cut by sizes (cycled; a zero is
// an empty chunk; no size, or only zeros, means one chunk) and returns what
// it emitted, checking after every Feed that only finalized positions —
// those below Pos-MaxPatternLen+1 — have come out.
func feedChunks(t testing.TB, a *Automaton, text []byte, sizes []int) []cursorEvent {
	t.Helper()
	if allZero(sizes) {
		sizes = nil
	}
	var got []cursorEvent
	emit := func(pos int64, m core.Match) error {
		got = append(got, cursorEvent{pos, m})
		return nil
	}
	c := a.NewCursor()
	rest := text
	for k := 0; len(rest) > 0 || k == 0; k++ {
		n := len(rest)
		if len(sizes) > 0 {
			n = min(sizes[k%len(sizes)], len(rest))
		}
		if err := c.Feed(rest[:n], emit); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		rest = rest[n:]
		if c.Pos() != int64(len(text)-len(rest)) {
			t.Fatalf("Pos = %d after %d bytes", c.Pos(), len(text)-len(rest))
		}
		if len(got) > 0 && got[len(got)-1].pos > c.Pos()-int64(a.MaxPatternLen()) {
			t.Fatalf("Feed emitted position %d with only %d bytes consumed (maxPatLen %d)",
				got[len(got)-1].pos, c.Pos(), a.MaxPatternLen())
		}
	}
	if err := c.Flush(emit); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return got
}

func allZero(sizes []int) bool {
	for _, s := range sizes {
		if s != 0 {
			return false
		}
	}
	return true
}

func assertSameEvents(t testing.TB, want, got []cursorEvent, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// checkEveryChunking holds the cursor to the oracle over one
// dictionary/text pair for: one chunk, 1-byte chunks, every chunk size up to
// just past the longest pattern (so all sizes shorter than it), every
// two-chunk split — which puts a boundary inside every occurrence and an
// empty chunk at either end — and a few uneven schedules with empty chunks
// in them.
func checkEveryChunking(t *testing.T, patterns [][]byte, text []byte) {
	t.Helper()
	a := mustCompile(t, patterns)
	want := oracleEvents(patterns, text)
	assertSameEvents(t, want, feedChunks(t, a, text, nil), "one chunk")
	for size := 1; size <= a.MaxPatternLen()+1; size++ {
		assertSameEvents(t, want, feedChunks(t, a, text, []int{size}), fmt.Sprintf("chunks of %d", size))
	}
	for k := 0; k <= len(text); k++ {
		assertSameEvents(t, want, feedChunks(t, a, text, []int{k, len(text)}), fmt.Sprintf("split at %d", k))
	}
	for _, sizes := range [][]int{{0, 1}, {3, 0, 0, 1, 7}, {1, 2, 3, 4, 5, 6, 7, 8, 9}, {257, 0, 2}} {
		assertSameEvents(t, want, feedChunks(t, a, text, sizes), fmt.Sprintf("schedule %v", sizes))
	}
}

// TestCursorEquivalence: for every chunking of every text in the
// equivalence corpus — the hand-picked cases (nested prefixes, duplicates,
// the all-256-bytes-live dictionary, empty and shorter-than-a-pattern
// texts) and the random sweep TestEquivalenceRandom runs — the cursor's
// events are the oracle's, in order. These texts are shorter than a kernel
// block; TestKernelLanes covers the multi-lane path.
func TestCursorEquivalence(t *testing.T) {
	for _, tc := range equivalenceCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			checkEveryChunking(t, tc.patterns, tc.text)
		})
	}
	gen := textgen.New(1789)
	for _, sigma := range []int{2, 4, 26} {
		for trial := 0; trial < 8; trial++ {
			patterns := gen.Dictionary(12, 1, 9, sigma)
			text := gen.Uniform(700, sigma)
			checkEveryChunking(t, patterns, text)
		}
	}
}

// TestCursorPlantedBoundaries: a planted text, with a chunk boundary at
// every offset of every planted occurrence.
func TestCursorPlantedBoundaries(t *testing.T) {
	gen := textgen.New(41)
	text, patterns := gen.PlantedDictionary(1<<12, 16, 6, 97, 4)
	a := mustCompile(t, patterns)
	want := oracleEvents(patterns, text)
	if len(want) == 0 {
		t.Fatal("planted text has no occurrences")
	}
	for _, e := range want {
		for k := e.pos; k <= e.pos+int64(e.m.Length); k++ {
			assertSameEvents(t, want, feedChunks(t, a, text, []int{int(k), len(text)}), fmt.Sprintf("split at %d", k))
		}
	}
}

// TestCursorFeedZeroAlloc pins the streaming hot path: Feed and Flush
// allocate nothing, on a text dense enough that every Feed emits.
func TestCursorFeedZeroAlloc(t *testing.T) {
	gen := textgen.New(7)
	patterns := gen.Dictionary(16, 2, 6, 4)
	text := gen.Uniform(4096, 4)
	a := mustCompile(t, patterns)
	var events, sum int64
	emit := func(pos int64, m core.Match) error {
		events++
		sum += pos + int64(m.PatternID)
		return nil
	}
	c := a.NewCursor()
	allocs := testing.AllocsPerRun(50, func() {
		for off := 0; off < len(text); off += 512 {
			if err := c.Feed(text[off:off+512], emit); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Feed allocated %.1f times per run, want 0", allocs)
	}
	if allocs = testing.AllocsPerRun(1, func() { _ = c.Flush(emit) }); allocs != 0 {
		t.Fatalf("Flush allocated %.1f times per run, want 0", allocs)
	}
	if events == 0 {
		t.Fatal("the text produced no events; the test measured nothing")
	}
}

// TestCursorEmitErrorAborts: an emit error stops the scan at that event, is
// returned unchanged, and poisons the cursor — events past the failed one
// are lost, so neither Feed nor Flush may carry on as if nothing happened.
func TestCursorEmitErrorAborts(t *testing.T) {
	a := mustCompile(t, toBytes("a"))
	stop := errors.New("stop")
	calls := 0
	emit := func(int64, core.Match) error {
		calls++
		return stop
	}
	c := a.NewCursor()
	if err := c.Feed([]byte("aaaa"), emit); !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("Feed: err=%v calls=%d, want stop after 1 call", err, calls)
	}
	if err := c.Feed([]byte("a"), emit); !errors.Is(err, stop) {
		t.Fatalf("Feed on an aborted cursor: %v, want the emit error", err)
	}
	if err := c.Flush(emit); !errors.Is(err, stop) {
		t.Fatalf("Flush on an aborted cursor: %v, want the emit error", err)
	}
	if calls != 1 {
		t.Fatalf("an aborted cursor emitted again (%d calls)", calls)
	}

	// The same in Flush: "ab" is still open when the text ends.
	b := mustCompile(t, toBytes("ab", "abc"))
	c = b.NewCursor()
	if err := c.Feed([]byte("xab"), emit); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := c.Flush(emit); !errors.Is(err, stop) {
		t.Fatalf("Flush: %v, want the emit error", err)
	}
}

// TestCursorDone: a flushed cursor refuses further text.
func TestCursorDone(t *testing.T) {
	a := mustCompile(t, toBytes("ab"))
	c := a.NewCursor()
	emit := func(int64, core.Match) error { return nil }
	if err := c.Flush(emit); err != nil {
		t.Fatalf("Flush of an empty text: %v", err)
	}
	if err := c.Feed([]byte("ab"), emit); !errors.Is(err, ErrCursorDone) {
		t.Fatalf("Feed after Flush: %v, want ErrCursorDone", err)
	}
	if err := c.Flush(emit); !errors.Is(err, ErrCursorDone) {
		t.Fatalf("second Flush: %v, want ErrCursorDone", err)
	}
}

// FuzzCursorEquivalence: for fuzzer-chosen texts, dictionaries and chunk
// schedules, the cursor emits exactly the oracle's events over the whole
// text. The text is fuzzCase's, several kernel blocks long; a schedule byte
// is a chunk size through fuzzChunk, so a schedule mixes chunks shorter
// than a pattern, zeros, and chunks of a block or more that start and end
// mid-block.
func FuzzCursorEquivalence(f *testing.F) {
	f.Add([]byte("ushers her hers"), []byte("he\nshe\nhers\nhis"), []byte{3}, uint8(3))
	f.Add([]byte("aaaaaaaa"), []byte("a\naa\naaa"), []byte{1}, uint8(2))
	f.Add(bytes.Repeat([]byte("abcab"), 40), []byte("ab\nbca\ncabc\nabcab"), []byte{0, 7, 0, 1, 2}, uint8(3))
	f.Add([]byte("xyxyxyx"), []byte("xyx\nyxy"), []byte{}, uint8(4))
	f.Add([]byte("the lanes split here"), []byte("lane\nes s\nhere"), []byte{200, 3, 170, 0, 255}, uint8(5))

	f.Fuzz(func(t *testing.T, rawText, rawDict, schedule []byte, sigma uint8) {
		if len(rawText) > 2048 || len(rawDict) > 256 || len(schedule) > 64 {
			return
		}
		text, patterns := fuzzCase(rawText, rawDict, sigma)
		if len(patterns) == 0 {
			return
		}
		sizes := make([]int, len(schedule))
		for i, v := range schedule {
			sizes[i] = fuzzChunk(v)
		}
		a, err := Compile(patterns, Options{})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		assertSameEvents(t, oracleEvents(patterns, text), feedChunks(t, a, text, sizes), "fuzzed schedule")
	})
}

// fuzzChunk maps a schedule byte to a chunk size: below 128 the byte itself,
// from 128 up steps of 97 bytes, to 12 KiB — past a kernel block, and never
// a multiple of a lane, so those chunks start and end mid-block.
func fuzzChunk(v byte) int {
	if v < 128 {
		return int(v)
	}
	return int(v-127) * 97
}

package dense

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/textgen"
)

// bruteHits is Scan's reference: every occurrence of every distinct pattern
// (duplicates report the first id), by end position, longest first.
func bruteHits(patterns [][]byte, text []byte) []Hit {
	seen := map[string]bool{}
	var distinct []int32
	for id, p := range patterns {
		if !seen[string(p)] {
			seen[string(p)] = true
			distinct = append(distinct, int32(id))
		}
	}
	slices.SortStableFunc(distinct, func(x, y int32) int { return len(patterns[y]) - len(patterns[x]) })
	var hits []Hit
	for to := 1; to <= len(text); to++ {
		for _, id := range distinct {
			if p := patterns[id]; bytes.HasSuffix(text[:to], p) {
				hits = append(hits, Hit{Pat: id, From: to - len(p), To: to})
			}
		}
	}
	return hits
}

// plantAcrossLanes copies a pattern across every laneBytes boundary of
// text — each is a lane split or a block edge — with boundary k cut after
// (k+shift) mod (len+1) of the pattern's bytes: every cut from "ends on the
// lane's last byte" to "starts on the next lane's first byte" comes up as
// shift varies. A pattern longer than a lane goes only across every third
// boundary, so plantings do not overwrite each other.
func plantAcrossLanes(text []byte, patterns [][]byte, shift int) {
	for k, b := 1, laneBytes; b < len(text); k, b = k+1, b+laneBytes {
		p := patterns[k%len(patterns)]
		if len(p) > laneBytes/2 && k%3 != 0 {
			continue
		}
		if start := b - (k+shift)%(len(p)+1); start+len(p) <= len(text) {
			copy(text[start:], p)
		}
	}
}

// laneSchedules are chunkings of a text several blocks long: one chunk;
// chunks just under a block (single lane only) and just over; chunks of a
// lane and a half; and an uneven mix that starts and ends chunks mid-block,
// mid-lane and on edges.
var laneSchedules = [][]int{
	nil,
	{blockBytes - 1},
	{blockBytes + 1},
	{laneBytes + laneBytes/2},
	{blockBytes/2 + 3, 2*blockBytes + 17, 1, 3*laneBytes - 5, blockBytes, 0, 7},
}

// checkLanes holds Scan, MatchInto and the cursor under every lane
// schedule to the oracles on one dictionary and text.
func checkLanes(t *testing.T, patterns [][]byte, text []byte) {
	t.Helper()
	a := mustCompile(t, patterns)
	assertSameMatches(t, oracleMatch(patterns, text), a.Match(text), "MatchInto")
	want := bruteHits(patterns, text)
	got := a.FindAll(text)
	if len(got) != len(want) {
		t.Fatalf("Scan: %d occurrences, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan: occurrence %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	events := oracleEvents(patterns, text)
	if len(events) == 0 {
		t.Fatal("the text has no occurrences; the test checks nothing")
	}
	for _, sizes := range laneSchedules {
		assertSameEvents(t, events, feedChunks(t, a, text, sizes), fmt.Sprintf("schedule %v", sizes))
	}
}

// TestKernelLanes: texts several blocks long, with occurrences planted
// across every lane split and block edge at every cut, agree with the
// oracles through every entry point. The dictionaries run from short
// patterns to maxPatLen just under and just over laneBytes+1, the longest
// that still lets lanes warm up inside their block: at laneBytes+1 a lane's
// warm-up is the whole previous lane, one more byte and every block runs
// single-lane.
func TestKernelLanes(t *testing.T) {
	gen := textgen.New(77)
	n := 3*blockBytes + 777
	short := gen.Dictionary(24, 2, 12, 4)
	short = append(short, []byte("abab"), []byte("ababab"), []byte("b"))
	for shift := 0; shift < 13; shift++ {
		t.Run(fmt.Sprintf("short/shift%d", shift), func(t *testing.T) {
			text := gen.Uniform(n, 4)
			plantAcrossLanes(text, short, shift)
			checkLanes(t, short, text)
		})
	}
	for _, maxLen := range []int{laneBytes, laneBytes + 1, laneBytes + 2} {
		long := gen.Uniform(maxLen, 4)
		patterns := append([][]byte{long, long[:maxLen/2], long[maxLen-9:]}, gen.Dictionary(8, 2, 8, 4)...)
		for _, shift := range []int{0, 1, maxLen - 1, maxLen} {
			t.Run(fmt.Sprintf("maxPatLen%d/shift%d", maxLen, shift), func(t *testing.T) {
				text := gen.Uniform(5*blockBytes+123, 4)
				plantAcrossLanes(text, patterns, shift)
				checkLanes(t, patterns, text)
			})
		}
	}
}

// TestFuzzInputsReachLanes: the fuzz targets' texts run the lanes, whatever
// the raw input's length, and their schedules include chunks of a block.
func TestFuzzInputsReachLanes(t *testing.T) {
	for _, raw := range [][]byte{[]byte("x"), []byte("ushers her hers"), bytes.Repeat([]byte("ab"), 1024)} {
		text, patterns := fuzzCase(raw, []byte("he\nshe\n"+string(bytes.Repeat([]byte("q"), 256))), 3)
		a := mustCompile(t, patterns)
		if n, _ := a.kernel(0, text, getHits()); n != blockBytes || len(text) < 2*blockBytes {
			t.Fatalf("%d-byte input: a %d-byte text, and its first kernel call took %d bytes; want the lanes over %d",
				len(raw), len(text), n, blockBytes)
		}
	}
	if fuzzChunk(200) <= blockBytes || fuzzChunk(200)%laneBytes == 0 {
		t.Fatalf("fuzzChunk(200) = %d, want a chunk past a block that ends mid-lane", fuzzChunk(200))
	}
}

// TestTableSizeGuard: row offsets are int32, so a table of 2³¹ entries or
// more is refused whatever the byte budget, and the budget still applies
// below that. Only the arithmetic runs; no table is allocated.
func TestTableSizeGuard(t *testing.T) {
	const noBudget = 1 << 62
	for _, tc := range []struct {
		states, width, budget int64
		ok                    bool
	}{
		{1 << 23, 256, noBudget, false},    // exactly 2³¹ entries
		{1<<23 - 1, 256, noBudget, true},   // 2³¹ - 256
		{1<<31 - 1, 1, noBudget, true},     // 2³¹ - 1
		{1 << 24, 257, 16 << 30, false},    // -dense-max-table past 8 GiB
		{12_000_000, 200, 16 << 30, false}, // 9.6 GB under a 16 GiB budget
		{100, 10, 3999, false},             // the byte budget
		{100, 10, 4000, true},
	} {
		err := checkTableSize(tc.states, tc.width, tc.budget)
		if (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrTableTooLarge)) {
			t.Errorf("checkTableSize(%d, %d, %d) = %v, want ok=%v", tc.states, tc.width, tc.budget, err, tc.ok)
		}
	}
}

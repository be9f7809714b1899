package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/staticdict"
)

type matchCollector struct{ events []MatchEvent }

func (c *matchCollector) MatchEvent(e MatchEvent) error {
	c.events = append(c.events, e)
	return nil
}

type phraseCollector struct{ events []PhraseEvent }

func (c *phraseCollector) PhraseEvent(e PhraseEvent) error {
	c.events = append(c.events, e)
	return nil
}

func pats(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// oneShotMatches is the batch reference: every position with a match.
func oneShotMatches(m *pram.Machine, d *core.Dictionary, text []byte) []MatchEvent {
	if len(text) == 0 {
		return nil
	}
	matches, _ := d.MatchLasVegas(m, text)
	var out []MatchEvent
	for i, mt := range matches {
		if mt.Length > 0 {
			out = append(out, MatchEvent{Pos: int64(i), PatternID: mt.PatternID, Length: mt.Length})
		}
	}
	return out
}

func TestMatchEquivalence(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aba", "ab", "bcb", "aabb", "b", "cccc"), core.Options{Seed: 3})
	a := mustCompileDense(t, d)
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 30; trial++ {
		n := rng.IntN(3000)
		text := make([]byte, n)
		for i := range text {
			text[i] = byte('a' + rng.IntN(3))
		}
		want := oneShotMatches(m, d, text)
		for _, seg := range []int{1, 2, 3, 5, 16, 257, 1024, n + 10} {
			var sink matchCollector
			st, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, bytes.NewReader(text), &sink, Config{SegmentBytes: seg})
			if err != nil {
				t.Fatalf("trial %d seg %d: %v", trial, seg, err)
			}
			if !matchEventsEqual(sink.events, want) {
				t.Fatalf("trial %d seg %d: %d events, want %d (n=%d)", trial, seg, len(sink.events), len(want), n)
			}
			if st.TextBytes != int64(n) {
				t.Fatalf("trial %d seg %d: TextBytes %d, want %d", trial, seg, st.TextBytes, n)
			}
			if maxW := seg + d.MaxPatternLen() - 1; st.MaxResident > maxW {
				t.Fatalf("trial %d seg %d: MaxResident %d exceeds segment+halo %d", trial, seg, st.MaxResident, maxW)
			}
			if st.Events != int64(len(want)) {
				t.Fatalf("trial %d seg %d: Events %d, want %d", trial, seg, st.Events, len(want))
			}
			checkDenseLegs(t, a, text, want, Config{SegmentBytes: seg}, fmt.Sprintf("trial %d seg %d", trial, seg))
		}
	}
}

func matchEventsEqual(a, b []MatchEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMatchEquivalenceParallelMachine(t *testing.T) {
	m := pram.New(3)
	defer m.Close()
	d := core.Preprocess(m, pats("abab", "ba", "aaa"), core.Options{Seed: 9})
	rng := rand.New(rand.NewPCG(5, 6))
	text := make([]byte, 20000)
	for i := range text {
		text[i] = byte('a' + rng.IntN(2))
	}
	want := oneShotMatches(m, d, text)
	var sink matchCollector
	_, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, iotest.OneByteReader(bytes.NewReader(text)), &sink, Config{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !matchEventsEqual(sink.events, want) {
		t.Fatalf("streamed events diverge from batch: %d vs %d", len(sink.events), len(want))
	}
}

func TestMatchEmptyText(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("ab"), core.Options{})
	var sink matchCollector
	st, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, bytes.NewReader(nil), &sink, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 0 || st.TextBytes != 0 {
		t.Fatalf("empty text produced events %v, stats %+v", sink.events, st)
	}
}

// prefixClosed is a dictionary with the prefix property: every prefix of
// every pattern is itself a pattern, and all single letters are present so
// every text over {a,b,c} is parseable.
var prefixClosed = pats("a", "b", "c", "ab", "abc", "abca", "ca", "cab", "bb")

func TestParseEquivalence(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, prefixClosed, core.Options{Seed: 4})
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(2500)
		text := make([]byte, n)
		for i := range text {
			text[i] = byte('a' + rng.IntN(3))
		}
		b := d.PrefixLengths(m, text)
		want, werr := staticdict.FrontierParse(n, b)
		opt, oerr := staticdict.OptimalParse(m, n, b)
		if werr != nil || oerr != nil {
			t.Fatalf("trial %d: reference parse failed: %v / %v", trial, werr, oerr)
		}
		if len(want) != len(opt) {
			t.Fatalf("trial %d: frontier %d phrases, optimal %d", trial, len(want), len(opt))
		}
		for _, seg := range []int{1, 2, 3, 7, 64, 999, n + 5} {
			var sink phraseCollector
			st, err := Parse(context.Background(), d, m, bytes.NewReader(text), &sink, Config{SegmentBytes: seg})
			if err != nil {
				t.Fatalf("trial %d seg %d: %v", trial, seg, err)
			}
			if len(sink.events) != len(want) {
				t.Fatalf("trial %d seg %d: %d phrases, want %d", trial, seg, len(sink.events), len(want))
			}
			for k, e := range sink.events {
				if e.Pos != int64(want[k].Pos) || e.Len != want[k].Len {
					t.Fatalf("trial %d seg %d: phrase %d = (%d,%d), want (%d,%d)",
						trial, seg, k, e.Pos, e.Len, want[k].Pos, want[k].Len)
				}
				if e.Word < 0 || !bytes.Equal(d.Patterns[e.Word], text[e.Pos:e.Pos+int64(e.Len)]) {
					t.Fatalf("trial %d seg %d: phrase %d word %d does not spell the phrase", trial, seg, k, e.Word)
				}
			}
			if st.Events != int64(len(want)) {
				t.Fatalf("trial %d seg %d: Events %d, want %d", trial, seg, st.Events, len(want))
			}
		}
	}
}

func TestParseNoParse(t *testing.T) {
	m := pram.NewSequential()
	// No "c" in the dictionary: any text containing c is unparseable.
	d := core.Preprocess(m, pats("a", "b", "ab"), core.Options{})
	var sink phraseCollector
	_, err := Parse(context.Background(), d, m, bytes.NewReader([]byte("abcab")), &sink, Config{SegmentBytes: 2})
	if !errors.Is(err, staticdict.ErrNoParse) {
		t.Fatalf("err = %v, want ErrNoParse", err)
	}
}

func TestUncompressEquivalence(t *testing.T) {
	m := pram.NewSequential()
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 20; trial++ {
		n := rng.IntN(4000)
		text := make([]byte, n)
		for i := range text {
			text[i] = byte('a' + rng.IntN(3))
		}
		c := lz.Compress(m, text)
		var enc bytes.Buffer
		if err := lz.EncodeStream(&enc, c); err != nil {
			t.Fatal(err)
		}
		for _, win := range []int{0, n + 1} {
			u, err := NewUncompressor(bytes.NewReader(enc.Bytes()), UncompressConfig{Window: win})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			var out bytes.Buffer
			st, err := u.Run(context.Background(), &out)
			if err != nil {
				t.Fatalf("trial %d win %d: %v", trial, win, err)
			}
			if !bytes.Equal(out.Bytes(), text) {
				t.Fatalf("trial %d win %d: output diverges (%d vs %d bytes)", trial, win, out.Len(), n)
			}
			if st.TextBytes != int64(n) {
				t.Fatalf("trial %d win %d: TextBytes %d, want %d", trial, win, st.TextBytes, n)
			}
		}
	}
}

func TestUncompressWindowed(t *testing.T) {
	// Hand-built parse: 10 literals then 50 copies of the first 10 bytes.
	// Every copy references offset 0, so any finite window must eventually
	// be exceeded; an unbounded one reproduces lz.Decode exactly.
	c := lz.Compressed{N: 510}
	for i := 0; i < 10; i++ {
		c.Tokens = append(c.Tokens, lz.Token{Len: 0, Lit: byte('0' + i)})
	}
	for i := 0; i < 50; i++ {
		c.Tokens = append(c.Tokens, lz.Token{Src: 0, Len: 10})
	}
	want, err := lz.Decode(c)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := lz.EncodeStream(&enc, c); err != nil {
		t.Fatal(err)
	}

	u, err := NewUncompressor(bytes.NewReader(enc.Bytes()), UncompressConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	st, err := u.Run(context.Background(), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("unbounded window output diverges from lz.Decode")
	}
	if st.FarthestBack != 500 {
		t.Fatalf("FarthestBack = %d, want 500", st.FarthestBack)
	}

	u, err = NewUncompressor(bytes.NewReader(enc.Bytes()), UncompressConfig{Window: 40})
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	_, err = u.Run(context.Background(), &out)
	if !errors.Is(err, ErrWindowExceeded) {
		t.Fatalf("err = %v, want ErrWindowExceeded", err)
	}

	u, err = NewUncompressor(bytes.NewReader(enc.Bytes()), UncompressConfig{MaxOutput: 100})
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if _, err = u.Run(context.Background(), &out); err == nil {
		t.Fatal("MaxOutput cap not enforced")
	}
}

func TestUncompressRejectsBadSource(t *testing.T) {
	c := lz.Compressed{N: 5, Tokens: []lz.Token{{Len: 0, Lit: 'x'}, {Src: 3, Len: 4}}}
	var enc bytes.Buffer
	if err := lz.EncodeStream(&enc, c); err != nil {
		t.Fatal(err)
	}
	u, err := NewUncompressor(bytes.NewReader(enc.Bytes()), UncompressConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Run(context.Background(), io.Discard); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// cancelSink cancels the context after the first event.
type cancelSink struct {
	cancel context.CancelFunc
	n      int
}

func (s *cancelSink) MatchEvent(MatchEvent) error {
	s.n++
	if s.n == 1 {
		s.cancel()
	}
	return nil
}

// endlessReader yields 'a' forever.
type endlessReader struct{}

func (endlessReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

func TestMatchCancellation(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aa"), core.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelSink{cancel: cancel}
	_, err := Match(ctx, DictMatcher{Dict: d, M: m}, endlessReader{}, sink, Config{SegmentBytes: 1 << 12})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

type failingSink struct{ after int }

func (s *failingSink) MatchEvent(MatchEvent) error {
	s.after--
	if s.after < 0 {
		return fmt.Errorf("sink full")
	}
	return nil
}

func TestMatchSinkErrorAborts(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aa"), core.Options{})
	text := bytes.Repeat([]byte("a"), 5000)
	_, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, bytes.NewReader(text), &failingSink{after: 3}, Config{SegmentBytes: 512})
	if err == nil || err.Error() != "sink full" {
		t.Fatalf("err = %v, want sink full", err)
	}
}

type readErrReader struct{ n int }

func (r *readErrReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, fmt.Errorf("disk on fire")
	}
	k := min(len(p), r.n)
	for i := 0; i < k; i++ {
		p[i] = 'a'
	}
	r.n -= k
	return k, nil
}

func TestMatchReaderErrorPropagates(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aa"), core.Options{})
	var sink matchCollector
	_, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, &readErrReader{n: 3000}, &sink, Config{SegmentBytes: 1024})
	if err == nil || err.Error() != "disk on fire" {
		t.Fatalf("err = %v, want reader error", err)
	}
}

// segObserver records SegmentDone calls alongside events.
type segObserver struct {
	matchCollector
	infos []SegmentInfo
}

func (s *segObserver) SegmentDone(info SegmentInfo) error {
	s.infos = append(s.infos, info)
	return nil
}

func TestSegmentObserver(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("ab", "ba"), core.Options{})
	text := bytes.Repeat([]byte("ab"), 1000) // 2000 bytes
	var sink segObserver
	st, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, bytes.NewReader(text), &sink, Config{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(sink.infos)) != st.Segments {
		t.Fatalf("%d SegmentDone calls, %d segments", len(sink.infos), st.Segments)
	}
	var finalized int64
	for i, info := range sink.infos {
		if info.Index != int64(i) {
			t.Fatalf("segment %d has index %d", i, info.Index)
		}
		finalized += int64(info.Finalized)
		if info.Last != (i == len(sink.infos)-1) {
			t.Fatalf("segment %d last=%v", i, info.Last)
		}
	}
	if finalized != int64(len(text)) {
		t.Fatalf("finalized %d positions, want %d", finalized, len(text))
	}
	if st.Work <= 0 || st.Depth <= 0 {
		t.Fatalf("ledger not aggregated: %+v", st)
	}
}

package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
)

func mustCompileDense(t testing.TB, d *core.Dictionary) *dense.Automaton {
	t.Helper()
	a, err := dense.CompileDictionary(d, dense.Options{})
	if err != nil {
		t.Fatalf("dense compile: %v", err)
	}
	return a
}

// checkDenseLegs runs the dense engine over text both ways — the carried
// state alone, and as a canary turn walking the same table — and holds each
// to want, the events Match emits, and the turn's Stats to the plain run's.
func checkDenseLegs(t testing.TB, a *dense.Automaton, text []byte, want []MatchEvent, cfg Config, label string) {
	t.Helper()
	var plain Stats
	for _, turn := range []bool{false, true} {
		leg, canary := label+" dense", (*Canary)(nil)
		if turn {
			leg, canary = leg+"+canary", NewCanary(a)
		}
		var sink matchCollector
		st, err := MatchDense(context.Background(), a, canary, bytes.NewReader(text), &sink, cfg)
		if err != nil {
			t.Fatalf("%s: %v", leg, err)
		}
		if !matchEventsEqual(sink.events, want) {
			t.Fatalf("%s: %d events, want %d", leg, len(sink.events), len(want))
		}
		if st.TextBytes != int64(len(text)) || st.Events != int64(len(want)) {
			t.Fatalf("%s: stats %+v for %d bytes, %d events", leg, st, len(text), len(want))
		}
		if st.Rounds != 1 || st.Work != int64(len(text)) || st.Depth != int64(len(text)) {
			t.Fatalf("%s: rounds/work/depth = %d/%d/%d, want 1 and the bytes scanned", leg, st.Rounds, st.Work, st.Depth)
		}
		if st.WindowBytes != st.TextBytes {
			t.Fatalf("%s: %d window bytes for %d text bytes — the carried state re-read text", leg, st.WindowBytes, st.TextBytes)
		}
		if st.MaxResident > cfg.segmentSize() {
			t.Fatalf("%s: MaxResident %d exceeds the segment, %d", leg, st.MaxResident, cfg.segmentSize())
		}
		if !turn {
			plain = st
		} else if st != plain {
			t.Fatalf("%s: stats %+v, the run off a turn had %+v", leg, st, plain)
		}
	}
}

// TestMatchDenseDuplicatePatterns: a duplicated pattern answers to one id
// on both the cursor and the canary's walk, so a canary turn agrees.
func TestMatchDenseDuplicatePatterns(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("dup", "x", "dup", "dupdup", "x"), core.Options{Seed: 5})
	a := mustCompileDense(t, d)
	text := bytes.Repeat([]byte("adupdupbxx"), 50)
	for _, seg := range []int{1, 4, 64} {
		var sink matchCollector
		if _, err := MatchDense(context.Background(), a, NewCanary(a), bytes.NewReader(text), &sink, Config{SegmentBytes: seg}); err != nil {
			t.Fatalf("seg %d: %v", seg, err)
		}
		for _, e := range sink.events {
			if !bytes.Equal(d.Patterns[e.PatternID], text[e.Pos:e.Pos+int64(e.Length)]) {
				t.Fatalf("seg %d: event %+v does not spell its pattern", seg, e)
			}
		}
	}
}

// TestMatchDenseDivergenceFails: a cursor that finalizes other events than
// the canary's walk — here one scanning another dictionary's automaton,
// against the walk over the right one — ends the turn with ErrDiverged, and
// nothing of the divergent segment reaches the sink: what was sent is a
// prefix of the right answer.
func TestMatchDenseDivergenceFails(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("abc", "bcd", "dxzabc"), core.Options{Seed: 5})
	right := mustCompileDense(t, d)
	text := []byte(strings.Repeat("xabcdxzabcdx", 40))
	want := oneShotMatches(m, d, text)
	// Wrong patterns of the right lengths, and automata that think the
	// longest pattern shorter, or longer, than the dictionary's.
	for name, patterns := range map[string][][]byte{
		"same-lengths": pats("zab", "cdx", "abcdxz"),
		"shorter":      pats("ab", "cd"),
		"longer":       pats("abc", "xzabcdxabc"),
	} {
		wrong, err := dense.Compile(patterns, dense.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range []int{1, 2, 7, 100, len(text) + 1} {
			var sink matchCollector
			_, err := MatchDense(context.Background(), wrong, NewCanary(right), bytes.NewReader(text), &sink, Config{SegmentBytes: seg})
			if !errors.Is(err, ErrDiverged) {
				t.Fatalf("%s seg %d: err = %v, want ErrDiverged", name, seg, err)
			}
			if len(sink.events) > len(want) || !matchEventsEqual(sink.events, want[:len(sink.events)]) {
				t.Fatalf("%s seg %d: sent %d events that are not a prefix of the %d right ones", name, seg, len(sink.events), len(want))
			}
		}
	}
}

// TestMatchDenseCancellationAndSinkError: the dense engine observes
// cancellation at segment granularity and returns a sink error unchanged,
// like Match.
func TestMatchDenseCancellationAndSinkError(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aa"), core.Options{})
	a := mustCompileDense(t, d)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := MatchDense(ctx, a, nil, endlessReader{}, &cancelSink{cancel: cancel}, Config{SegmentBytes: 1 << 12})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	text := bytes.Repeat([]byte("a"), 5000)
	_, err = MatchDense(context.Background(), a, nil, bytes.NewReader(text), &failingSink{after: 3}, Config{SegmentBytes: 512})
	if err == nil || err.Error() != "sink full" {
		t.Fatalf("err = %v, want sink full", err)
	}
	_, err = MatchDense(context.Background(), a, nil, &readErrReader{n: 3000}, &matchCollector{}, Config{SegmentBytes: 1024})
	if err == nil || err.Error() != "disk on fire" {
		t.Fatalf("err = %v, want reader error", err)
	}
}

// TestSegmentsIndependentOfReader: how a reader reports the end of its input
// — io.EOF with the last bytes or on a call of its own, in large reads or
// single bytes — does not change how the pipeline cuts segments.
func TestSegmentsIndependentOfReader(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("ab", "ba"), core.Options{})
	a := mustCompileDense(t, d)
	for _, n := range []int{0, 1, 511, 512, 513, 2048, 2049} {
		text := bytes.Repeat([]byte("ab"), n/2+1)[:n]
		wantSegs := int64(n/512 + 1) // full segments, then a short (or empty) last one
		readers := map[string]func() io.Reader{
			"plain":         func() io.Reader { return bytes.NewReader(text) },
			"eof-with-data": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(text)) },
			"one-byte":      func() io.Reader { return iotest.OneByteReader(bytes.NewReader(text)) },
			"half":          func() io.Reader { return iotest.HalfReader(bytes.NewReader(text)) },
		}
		for name, mk := range readers {
			st, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, mk(), &matchCollector{}, Config{SegmentBytes: 512})
			if err != nil || st.Segments != wantSegs || st.TextBytes != int64(n) {
				t.Fatalf("tree, %s reader, n=%d: %d segments (want %d), %d bytes, err %v", name, n, st.Segments, wantSegs, st.TextBytes, err)
			}
			st, err = MatchDense(context.Background(), a, nil, mk(), &matchCollector{}, Config{SegmentBytes: 512})
			if err != nil || st.Segments != wantSegs || st.TextBytes != int64(n) {
				t.Fatalf("dense, %s reader, n=%d: %d segments (want %d), %d bytes, err %v", name, n, st.Segments, wantSegs, st.TextBytes, err)
			}
		}
	}
}

// maxSegment is the largest segment a server lets a client ask for.
const maxSegment = 64 << 20

// TestTinyBodyMaxSegmentAllocation pins the fix for the stream route's
// memory amplification: buffers are sized by what has been read, so a tiny
// input with the largest segment costs kilobytes on either engine (the
// up-front buffers cost 192 MiB).
func TestTinyBodyMaxSegmentAllocation(t *testing.T) {
	const ceiling = 64 << 10
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("ab", "ba"), core.Options{})
	a := mustCompileDense(t, d)
	cfg := Config{SegmentBytes: maxSegment}
	engines := map[string]func(r io.Reader) (Stats, error){
		"tree": func(r io.Reader) (Stats, error) {
			return Match(context.Background(), DictMatcher{Dict: d, M: m}, r, &matchCollector{}, cfg)
		},
		"dense": func(r io.Reader) (Stats, error) {
			return MatchDense(context.Background(), a, nil, r, &matchCollector{}, cfg)
		},
		"dense+canary": func(r io.Reader) (Stats, error) {
			return MatchDense(context.Background(), a, NewCanary(a), r, &matchCollector{}, cfg)
		},
	}
	for name, run := range engines {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := run(strings.NewReader("a"))
		runtime.ReadMemStats(&after)
		if err != nil || st.TextBytes != 1 {
			t.Fatalf("%s: %+v, %v", name, st, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
			t.Fatalf("%s: a 1-byte input with segment=%d allocated %d bytes, ceiling %d", name, maxSegment, got, ceiling)
		}
	}
}

// TestBuffersGrowToSegment: a long input still ends up with segment-sized
// buffers and no more — growth stops at the configured size.
func TestBuffersGrowToSegment(t *testing.T) {
	buf := []byte(nil)
	r := bytes.NewReader(make([]byte, 100<<10))
	seg, err := readSegment(r, buf, 24<<10)
	if err != nil || len(seg) != 24<<10 || cap(seg) != 24<<10 {
		t.Fatalf("first segment: len %d cap %d err %v, want exactly the segment size", len(seg), cap(seg), err)
	}
	again, err := readSegment(r, seg, 24<<10)
	if err != nil || &again[0] != &seg[0] {
		t.Fatalf("second segment did not reuse the buffer (err %v)", err)
	}
}

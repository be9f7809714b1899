package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/pram"
)

// sameArray reports whether two slices with capacity share a backing
// array: a slice made by two-index slicing reaches to its array's end.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// stallReader delivers a full first segment and half of the second, then
// blocks in Read until released; the released Read writes over the buffer
// it was given, as a late network read would, and fails mid-segment.
type stallReader struct {
	text    []byte
	stall   int           // bytes to deliver before Read blocks
	held    chan []byte   // the buffer the blocked Read holds
	stalled chan struct{} // closed when Read blocks
	release chan struct{}
}

func (r *stallReader) Read(p []byte) (int, error) {
	if r.stall > 0 {
		n := copy(p, r.text[:r.stall])
		r.text, r.stall = r.text[n:], r.stall-n
		return n, nil
	}
	r.held <- p
	close(r.stalled)
	<-r.release
	for i := range p {
		p[i] = 'X'
	}
	return len(p) / 2, errors.New("connection reset")
}

// recordingReader reads text and keeps every buffer it was asked to fill.
type recordingReader struct {
	r    io.Reader
	bufs [][]byte
}

func (r *recordingReader) Read(p []byte) (int, error) {
	r.bufs = append(r.bufs, p)
	return r.r.Read(p)
}

// abortSink fails its first event once the reader has stalled: the client
// is gone, or its context was cancelled while the producer was still
// reading.
type abortSink struct {
	stalled <-chan struct{}
	cancel  context.CancelFunc
	err     error
}

func (s *abortSink) MatchEvent(MatchEvent) error {
	<-s.stalled
	if s.cancel != nil {
		s.cancel()
	}
	return s.err
}

// TestStreamPoolAbort: a stream that aborts while its producer is blocked
// in Read — a sink that fails, a cancelled client — returns its buffers to
// the pool, but never the one the blocked Read is still writing: the
// requests that follow never read into it, and their events are exact
// after the stalled Read has scribbled over it.
func TestStreamPoolAbort(t *testing.T) {
	const seg = 4096
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("ab", "bab", "cab"), core.Options{Seed: 3})
	a := mustCompileDense(t, d)
	text := bytes.Repeat([]byte("cabab"), 3*seg/5)
	var want matchCollector
	if _, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, bytes.NewReader(text), &want, Config{SegmentBytes: seg}); err != nil {
		t.Fatal(err)
	}

	engines := map[string]func(ctx context.Context, r io.Reader, sink MatchSink) error{
		"dense": func(ctx context.Context, r io.Reader, sink MatchSink) error {
			_, err := MatchDense(ctx, a, nil, r, sink, Config{SegmentBytes: seg})
			return err
		},
		"dense+oracle": func(ctx context.Context, r io.Reader, sink MatchSink) error { // a canary turn
			_, err := MatchDense(ctx, a, NewCanary(a), r, sink, Config{SegmentBytes: seg})
			return err
		},
		"tree": func(ctx context.Context, r io.Reader, sink MatchSink) error {
			_, err := Match(ctx, DictMatcher{Dict: d, M: pram.NewSequential()}, r, sink, Config{SegmentBytes: seg})
			return err
		},
	}
	for name, run := range engines {
		for _, abort := range []string{"sink", "cancel"} {
			t.Run(fmt.Sprintf("%s/%s", name, abort), func(t *testing.T) {
				r := &stallReader{text: text, stall: seg + seg/2, held: make(chan []byte, 1), stalled: make(chan struct{}), release: make(chan struct{})}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				sink := &abortSink{stalled: r.stalled, err: errors.New("client gone")}
				if abort == "cancel" {
					sink.cancel, sink.err = cancel, context.Canceled
				}
				if err := run(ctx, r, sink); err == nil {
					t.Fatal("the aborted stream reported no error")
				}
				stalled := <-r.held

				// The producer is still blocked reading into stalled.
				for i := 0; i < 16; i++ {
					rec := &recordingReader{r: bytes.NewReader(text)}
					var got matchCollector
					if err := run(context.Background(), rec, &got); err != nil {
						t.Fatal(err)
					}
					for _, b := range rec.bufs {
						if sameArray(b, stalled) {
							t.Fatalf("stream %d read into the buffer a blocked Read still holds", i+1)
						}
					}
				}
				close(r.release)
				for i := 0; i < 4; i++ {
					var got matchCollector
					if err := run(context.Background(), bytes.NewReader(text), &got); err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got.events) != fmt.Sprint(want.events) {
						t.Fatalf("stream %d after the stalled Read returned: %d events, want %d", i+1, len(got.events), len(want.events))
					}
				}
			})
		}
	}
}

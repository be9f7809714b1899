package stream

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pram"
)

// panicMatcher panics on the given window index.
type panicMatcher struct {
	inner   TextMatcher
	windows int
	panicOn int
	value   any
}

func (pm *panicMatcher) MaxPatternLen() int { return pm.inner.MaxPatternLen() }

func (pm *panicMatcher) MatchWindow(ctx context.Context, window []byte) ([]core.Match, int, pram.Counters, error) {
	w := pm.windows
	pm.windows++
	if w == pm.panicOn {
		panic(pm.value)
	}
	return pm.inner.MatchWindow(ctx, window)
}

// TestWindowPanicContained: a panic inside the per-window computation —
// whether a raw value or a *pram.StepPanic escaping a worker — must come
// back as a typed *WindowPanicError, never kill the caller, and events from
// the panicked window must not have been emitted (no torn output).
func TestWindowPanicContained(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aba", "bb"), core.Options{Seed: 5})
	text := bytes.Repeat([]byte("ab"), 400)
	boom := errors.New("window boom")
	pm := &panicMatcher{inner: DictMatcher{Dict: d, M: m}, panicOn: 1, value: boom}

	var sink matchCollector
	_, err := Match(context.Background(), pm, bytes.NewReader(text), &sink, Config{SegmentBytes: 128})
	var wp *WindowPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("Match returned %v, want *WindowPanicError", err)
	}
	if wp.Value != boom {
		t.Errorf("panic value = %v, want %v", wp.Value, boom)
	}
	if len(wp.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !errors.Is(err, boom) {
		t.Error("errors.Is through WindowPanicError failed")
	}
	if !strings.Contains(err.Error(), "window computation panicked") {
		t.Errorf("error text %q", err)
	}
	// Only window 0's finalized events were emitted; every event precedes
	// the failed window's base.
	for _, e := range sink.events {
		if e.Pos >= 128 {
			t.Fatalf("event at %d emitted after the panicked window's base", e.Pos)
		}
	}
}

// TestWindowPanicFirstWindow: a panic on the very first window yields the
// typed error with zero events.
func TestWindowPanicFirstWindow(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("xy"), core.Options{Seed: 6})
	pm := &panicMatcher{inner: DictMatcher{Dict: d, M: m}, panicOn: 0, value: "str panic"}
	var sink matchCollector
	_, err := Match(context.Background(), pm, strings.NewReader("xyxyxy"), &sink, Config{SegmentBytes: 4})
	var wp *WindowPanicError
	if !errors.As(err, &wp) || wp.Value != "str panic" {
		t.Fatalf("err = %v", err)
	}
	if len(sink.events) != 0 {
		t.Fatalf("%d events emitted before first-window panic", len(sink.events))
	}
}

// panicSink panics on the given event.
type panicSink struct {
	matchCollector
	panicOn int
}

func (s *panicSink) MatchEvent(e MatchEvent) error {
	if len(s.events) == s.panicOn {
		panic("sink boom")
	}
	return s.matchCollector.MatchEvent(e)
}

// TestWindowPanicContainedDense: the dense engine runs under the same
// containment. A panic under the sink surfaces as *WindowPanicError after a
// correct prefix, on a canary turn — whose events wait for the walk — as
// off one, whose cursor writes as it scans.
func TestWindowPanicContainedDense(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aba", "bb"), core.Options{Seed: 5})
	a := mustCompileDense(t, d)
	text := bytes.Repeat([]byte("ab"), 400)
	want := oneShotMatches(m, d, text)

	for _, turn := range []bool{false, true} {
		var canary *Canary
		if turn {
			canary = NewCanary(a)
		}
		ps := &panicSink{panicOn: 50}
		_, err := MatchDense(context.Background(), a, canary, bytes.NewReader(text), ps, Config{SegmentBytes: 128})
		var wp *WindowPanicError
		if !errors.As(err, &wp) || wp.Value != "sink boom" || len(wp.Stack) == 0 {
			t.Fatalf("canary %v: err = %v, want *WindowPanicError", turn, err)
		}
		if len(ps.events) != 50 || !matchEventsEqual(ps.events, want[:50]) {
			t.Fatalf("canary %v: %d events before the panic are not the oracle's first 50", turn, len(ps.events))
		}
	}
}

//go:build chaos

package stream

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
	"repro/internal/textgen"
)

func withPlan(t *testing.T, seed uint64, spec string) {
	t.Helper()
	plan, err := chaos.ParsePlan(seed, spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	chaos.Install(plan)
	t.Cleanup(func() { chaos.Install(nil) })
}

// TestChaosStreamTruncation: an injected mid-stream reader death must end
// the run with the typed injected error, and everything emitted before the
// cut must be a correct prefix of the batch oracle.
func TestChaosStreamTruncation(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aba", "ab", "bb"), core.Options{Seed: 7})
	text := textgen.New(60).Uniform(4096, 2) // alphabet {a,b}
	want := oneShotMatches(m, d, text)

	withPlan(t, 11, "stream.truncate:p=1,every=3,n=1") // die on the 3rd read
	var sink matchCollector
	_, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, bytes.NewReader(text), &sink, Config{SegmentBytes: 512})
	if !chaos.IsInjected(err) {
		t.Fatalf("Match under truncation: %v, want injected error", err)
	}
	if len(sink.events) == 0 {
		t.Fatal("expected some events before the cut")
	}
	if len(sink.events) >= len(want) {
		t.Fatalf("truncated run emitted %d events, oracle has %d", len(sink.events), len(want))
	}
	for i, e := range sink.events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, oracle %+v — truncation tore the prefix", i, e, want[i])
		}
	}
}

// TestChaosStreamStallHarmless: injected producer stalls slow the run but
// must not change its output.
func TestChaosStreamStallHarmless(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aba", "bb"), core.Options{Seed: 8})
	text := textgen.New(61).Uniform(2048, 2)
	want := oneShotMatches(m, d, text)

	withPlan(t, 12, "stream.stall:p=1,delay=2ms")
	var sink matchCollector
	st, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, bytes.NewReader(text), &sink, Config{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Match under stalls: %v", err)
	}
	if !matchEventsEqual(sink.events, want) {
		t.Fatalf("stalled run emitted %d events, oracle %d", len(sink.events), len(want))
	}
	if st.TextBytes != int64(len(text)) {
		t.Fatalf("TextBytes = %d, want %d", st.TextBytes, len(text))
	}
}

// TestChaosCollisionReseedInStream: forced fingerprint collisions inside a
// window must be caught by the §3.4 checker and healed by reseed rounds;
// the streamed output stays oracle-identical and Stats.Rounds records the
// extra Las Vegas rounds.
func TestChaosCollisionReseedInStream(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aba", "ab", "bb", "baab"), core.Options{Seed: 9})
	text := textgen.New(62).Uniform(3000, 2)
	want := oneShotMatches(m, d, text) // oracle computed before arming chaos

	withPlan(t, 13, "fp.collide:p=0.05,n=4")
	var sink matchCollector
	st, err := Match(context.Background(), DictMatcher{Dict: d, M: m}, bytes.NewReader(text), &sink, Config{SegmentBytes: 600})
	if err != nil {
		t.Fatalf("Match under collisions: %v", err)
	}
	if !matchEventsEqual(sink.events, want) {
		t.Fatal("collision-injected stream diverged from oracle")
	}
	if int64(st.Rounds) <= st.Segments {
		t.Fatalf("Rounds = %d with %d segments — no reseed happened; tune the plan", st.Rounds, st.Segments)
	}
}

// denseEngines are the two ways a dense stream over a runs: the cursor
// alone, and as a canary turn walking a beside it.
func denseEngines(a *dense.Automaton) map[string]func() *Canary {
	return map[string]func() *Canary{
		"dense":        func() *Canary { return nil },
		"dense+canary": func() *Canary { return NewCanary(a) },
	}
}

// TestChaosDenseStreamTruncation: the dense engine under an injected reader
// death — the typed injected error, and a correct prefix before it.
func TestChaosDenseStreamTruncation(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aba", "ab", "bb"), core.Options{Seed: 7})
	a := mustCompileDense(t, d)
	text := textgen.New(60).Uniform(4096, 2)
	want := oneShotMatches(m, d, text)

	for name, canary := range denseEngines(a) {
		withPlan(t, 11, "stream.truncate:p=1,every=3,n=1") // die on the 3rd read
		var sink matchCollector
		_, err := MatchDense(context.Background(), a, canary(), bytes.NewReader(text), &sink, Config{SegmentBytes: 512})
		if !chaos.IsInjected(err) {
			t.Fatalf("%s under truncation: %v, want injected error", name, err)
		}
		if len(sink.events) == 0 || len(sink.events) >= len(want) {
			t.Fatalf("%s: truncated run emitted %d events, oracle has %d", name, len(sink.events), len(want))
		}
		for i, e := range sink.events {
			if e != want[i] {
				t.Fatalf("%s: event %d = %+v, oracle %+v — truncation tore the prefix", name, i, e, want[i])
			}
		}
	}
}

// TestChaosDenseStreamStallHarmless: producer stalls do not change a dense
// stream's output.
func TestChaosDenseStreamStallHarmless(t *testing.T) {
	m := pram.NewSequential()
	d := core.Preprocess(m, pats("aba", "bb"), core.Options{Seed: 8})
	a := mustCompileDense(t, d)
	text := textgen.New(61).Uniform(2048, 2)
	want := oneShotMatches(m, d, text)

	withPlan(t, 12, "stream.stall:p=1,delay=2ms")
	for name, canary := range denseEngines(a) {
		var sink matchCollector
		st, err := MatchDense(context.Background(), a, canary(), bytes.NewReader(text), &sink, Config{SegmentBytes: 256})
		if err != nil {
			t.Fatalf("%s under stalls: %v", name, err)
		}
		if !matchEventsEqual(sink.events, want) || st.TextBytes != int64(len(text)) {
			t.Fatalf("%s: stalled run emitted %d events over %d bytes, oracle %d over %d", name, len(sink.events), st.TextBytes, len(want), len(text))
		}
	}
}

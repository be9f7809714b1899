package server

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dense"
	"repro/internal/stream"
)

// TestReferenceReleasedAfterTurn: the canary's reference is a walk over the
// entry's certified table, so a turn builds nothing that outlives it and
// concurrent turns share no state: they all pass (run under -race). The
// buffered route's turns are requests 1, verifySampleEvery and
// 2×verifySampleEvery, after one certificate.
func TestReferenceReleasedAfterTurn(t *testing.T) {
	srv, err := New(Config{Procs: 1, DenseMode: DenseOn, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	text, patterns, _ := densePatternStrings(t, 13)
	text = text[:4096]
	aut, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := registerWithAutomaton(srv, patterns, aut)
	got := stream.AppendEvents(nil, aut.Match(text), 0)
	if len(got) == 0 {
		t.Fatal("degenerate workload: no matches")
	}
	mt := srv.Metrics()
	a, err := e.certified(srv)
	if err != nil || a != aut {
		t.Fatalf("a compiled automaton failed its certificate: %v", err)
	}

	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c := stream.NewCanary(a)
			if err := srv.settle(e, c, c.Check(text, got...), &mt.denseVerifyPass, &mt.denseVerifyFail); err != nil {
				t.Errorf("canary turn: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if pass, fail := mt.denseVerifyPass.Load(), mt.denseVerifyFail.Load(); pass != workers || fail != 0 {
		t.Fatalf("%d concurrent turns: %d passed, %d failed", workers, pass, fail)
	}

	mt.denseVerifyPass.Store(0)
	for i := 0; i < 2*verifySampleEvery; i++ {
		if _, _, engine, err := srv.serveMatch(context.Background(), e, text, nil); err != nil || engine != engineDense {
			t.Fatalf("request %d: engine %q, err %v", i+1, engine, err)
		}
	}
	if pass, fail, certs := mt.denseVerifyPass.Load(), mt.denseVerifyFail.Load(), mt.certified.Load(); pass != 3 || fail != 0 || certs != 1 {
		t.Fatalf("after %d requests: pass=%d fail=%d certified=%d, want 3/0/1", 2*verifySampleEvery, pass, fail, certs)
	}
}

package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dense"
	"repro/internal/stream"
)

// TestReferenceReleasedAfterTurn: the reference is built for an oracle
// turn and dropped after it. Concurrent turns (run under -race) all pass
// and leave nothing resident; the buffered route's turns, requests 1,
// verifySampleEvery and 2×verifySampleEvery, build one each, after one
// certificate. An entry whose certificate failed keeps its reference, since
// every request takes a turn.
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
	resident := func() int64 { return mt.Snapshot(srv.Registry(), nil).Dense.OracleStates }
	if !e.certified(mt) {
		t.Fatal("a compiled automaton failed its certificate")
	}

	const workers = 8
	var pass, fail atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if want, err := srv.verify(context.Background(), e, text, got, &pass, &fail); err != nil || want != nil {
				t.Errorf("oracle turn: diverged=%v err=%v", want != nil, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := mt.oracleBuilds.Load(); n < 1 || n > workers || pass.Load() != workers || fail.Load() != 0 || resident() != 0 {
		t.Fatalf("%d concurrent turns: %d builds, %d passed, %d failed, %d states resident — want 1–%d builds, all passed, none resident",
			workers, n, pass.Load(), fail.Load(), resident(), workers)
	}

	mt.oracleBuilds.Store(0)
	for i := 0; i < 2*verifySampleEvery; i++ {
		if _, _, engine, err := srv.serveMatch(context.Background(), e, text, nil); err != nil || engine != engineDense {
			t.Fatalf("request %d: engine %q, err %v", i+1, engine, err)
		}
		if states := resident(); states != 0 {
			t.Fatalf("after request %d: %d reference states resident, want none", i+1, states)
		}
	}
	if pass, fail, builds, certs := mt.denseVerifyPass.Load(), mt.denseVerifyFail.Load(), mt.oracleBuilds.Load(), mt.certified.Load(); pass != 3 || fail != 0 || builds != 3 || certs != 1 {
		t.Fatalf("after %d requests: pass=%d fail=%d builds=%d certified=%d, want 3/0/3/1", 2*verifySampleEvery, pass, fail, builds, certs)
	}

	wrong, err := dense.Compile(patterns[:len(patterns)-1], dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := registerWithAutomaton(srv, patterns, wrong)
	mt.oracleBuilds.Store(0)
	for i := 0; i < 3; i++ {
		if _, _, engine, err := srv.serveMatch(context.Background(), bad, text, nil); err != nil || engine != engineReference {
			t.Fatalf("uncertified request %d: engine %q, err %v", i+1, engine, err)
		}
	}
	if builds, fails := mt.oracleBuilds.Load(), mt.certifyFail.Load(); builds != 1 || fails != 1 {
		t.Fatalf("uncertified entry: %d builds, %d certificate failures, want 1 and 1", builds, fails)
	}
	if states := resident(); states != bad.refStates.Load() || states == 0 {
		t.Fatalf("oracleStates = %d, want the uncertified entry's kept reference", states)
	}
}

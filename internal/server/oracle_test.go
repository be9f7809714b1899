package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dense"
	"repro/internal/stream"
)

// TestReferenceBuiltOncePerEntry: sampled turns share one reference per
// entry. Concurrent first turns (run under -race) build it once, and the
// buffered route's later samples reuse it.
func TestReferenceBuiltOncePerEntry(t *testing.T) {
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
	mt := srv.Metrics()
	if n := mt.oracleBuilds.Load(); n != 1 || pass.Load() != workers || fail.Load() != 0 {
		t.Fatalf("%d concurrent first turns: %d builds, %d passed, %d failed — want 1 build, all passed", workers, n, pass.Load(), fail.Load())
	}

	// Requests 1, 64 and 128 of the buffered route are samples.
	for i := 0; i < 2*verifySampleEvery; i++ {
		if _, _, engine, err := srv.serveMatch(context.Background(), e, text, nil); err != nil || engine != engineDense {
			t.Fatalf("request %d: engine %q, err %v", i+1, engine, err)
		}
	}
	if pass, fail, builds := mt.denseVerifyPass.Load(), mt.denseVerifyFail.Load(), mt.oracleBuilds.Load(); pass != 3 || fail != 0 || builds != 1 {
		t.Fatalf("after %d requests: pass=%d fail=%d builds=%d, want 3/0/1", 2*verifySampleEvery, pass, fail, builds)
	}
	if states := mt.Snapshot(srv.Registry(), nil).Dense.OracleStates; states != int64(e.ref.Load().ac.NumStates()) {
		t.Fatalf("oracleStates = %d, want the one resident reference's %d", states, e.ref.Load().ac.NumStates())
	}
}

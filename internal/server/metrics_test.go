package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsConcurrentObserve hammers one route from many goroutines while
// others register fresh routes and take snapshots. Under -race this pins
// down the lock-free observe path and the copy-on-write route map.
func TestMetricsConcurrentObserve(t *testing.T) {
	mt := newMetrics()
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rm := mt.route("GET /v1/hot")
			for i := 0; i < perG; i++ {
				status := 200
				if i%10 == 0 {
					status = 500
				}
				rm.observe(time.Duration(i)*time.Microsecond, status)
				if i%500 == 0 {
					// Concurrent registration must not disturb readers.
					mt.route("GET /v1/cold")
					_ = mt.Snapshot(nil, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	snap := mt.Snapshot(nil, nil)
	rs, ok := snap.Requests["GET /v1/hot"]
	if !ok {
		t.Fatal("hot route missing from snapshot")
	}
	wantCount := int64(goroutines * perG)
	if rs.Count != wantCount {
		t.Fatalf("count = %d, want %d", rs.Count, wantCount)
	}
	if want := wantCount / 10; rs.Errors != want {
		t.Fatalf("errors = %d, want %d", rs.Errors, want)
	}
	var histTotal int64
	for _, c := range rs.HistPow2Mic {
		histTotal += c
	}
	if histTotal != wantCount {
		t.Fatalf("histogram total = %d, want %d", histTotal, wantCount)
	}
	if rs.MaxMicros != perG-1 {
		t.Fatalf("max = %d, want %d", rs.MaxMicros, perG-1)
	}
	if _, ok := snap.Requests["GET /v1/cold"]; !ok {
		t.Fatal("cold route missing from snapshot")
	}
}

// TestMetricsRouteIdentity checks that route() always returns the same
// bucket for a pattern, across the copy-on-write swaps caused by other
// insertions.
func TestMetricsRouteIdentity(t *testing.T) {
	mt := newMetrics()
	a := mt.route("GET /a")
	mt.route("GET /b")
	mt.route("GET /c")
	if mt.route("GET /a") != a {
		t.Fatal("route bucket identity lost across inserts")
	}
}

// TestMetricsOracleCounters: the dense section of GET /metrics reports the
// certificate — run once, by the entry's first request — and the canary:
// request 1's turn walks the table, passes and is timed; request 2 takes no
// turn and moves neither clock. A stream's turn, which walks per segment,
// is timed on the same clock.
func TestMetricsOracleCounters(t *testing.T) {
	_, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOn})
	id := createDict(t, base, "abra", "cad", "abracadabra")
	dense := func() denseSnapshot {
		t.Helper()
		var snap MetricsSnapshot
		if code := getJSON(t, base+"/metrics", &snap); code != http.StatusOK {
			t.Fatalf("metrics: %d", code)
		}
		return snap.Dense
	}
	if d := dense(); d.OracleNanos != 0 || d.VerifyPass != 0 || d.Certified != 0 || d.CertifyNanos != 0 {
		t.Fatalf("before any request: %+v", d)
	}
	var nanos, certNanos int64
	for req := 1; req <= 2; req++ {
		matchHits(t, base, id, "abracadabra")
		d := dense()
		if d.OracleNanos <= 0 || d.VerifyPass != 1 || d.VerifyFail != 0 {
			t.Fatalf("after request %d: %+v, want request 1's turn timed and passed", req, d)
		}
		if d.Certified != 1 || d.CertifyFail != 0 || d.CertifyNanos <= 0 {
			t.Fatalf("after request %d: %+v, want one certificate, passed", req, d)
		}
		if req == 2 && (d.OracleNanos != nanos || d.CertifyNanos != certNanos) {
			t.Fatalf("request 2 moved oracleNanos %d -> %d or certifyNanos %d -> %d", nanos, d.OracleNanos, certNanos, d.CertifyNanos)
		}
		nanos, certNanos = d.OracleNanos, d.CertifyNanos
	}
	streamed := createDict(t, base, "abra", "cad")
	if _, tr := streamLines(t, base+"/v1/dicts/"+streamed+"/match/stream?segment=1024", []byte(strings.Repeat("abracadabra", 1000))); tr.Summary == nil {
		t.Fatalf("stream: %+v", tr)
	}
	if d := dense(); d.OracleNanos <= nanos || d.VerifyPass != 2 || d.VerifyFail != 0 {
		t.Fatalf("after a stream's turn: %+v, want it passed and oracleNanos past %d", d, nanos)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCounterSum verifies that Load sums every shard.
func TestShardedCounterSum(t *testing.T) {
	var c shardedCounter
	for i := 0; i < 1000; i++ {
		c.Add(2)
	}
	if got := c.Load(); got != 2000 {
		t.Fatalf("Load = %d, want 2000", got)
	}
}

// BenchmarkMetricsObserve measures the uncontended observe path.
func BenchmarkMetricsObserve(b *testing.B) {
	mt := newMetrics()
	rm := mt.route("GET /v1/bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rm.observe(50*time.Microsecond, 200)
	}
}

// BenchmarkMetricsObserveParallel measures contention across cores — the
// case the sharded counters exist for.
func BenchmarkMetricsObserveParallel(b *testing.B) {
	mt := newMetrics()
	rm := mt.route("GET /v1/bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rm.observe(50*time.Microsecond, 200)
		}
	})
}

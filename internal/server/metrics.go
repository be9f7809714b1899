package server

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
)

// histBuckets is the number of latency histogram buckets. Bucket i counts
// requests with latency < 2^i microseconds; the last bucket is the
// overflow (everything slower than ~2^18 µs ≈ 262 ms lands there too).
const histBuckets = 20

// counterShards stripes the per-route hot counters across cache lines so
// concurrent handlers on different cores don't serialize on one contended
// line. Eight padded cells cover typical core counts; beyond that the
// residual contention is per-shard, not global.
const counterShards = 8

// paddedCell is an atomic counter padded to a cache line.
type paddedCell struct {
	v atomic.Int64
	_ [56]byte
}

// shardedCounter is an add-mostly counter: Add touches one pseudo-randomly
// chosen shard (rand/v2's per-thread generator, no shared state), Load sums
// all shards. Loads are monotone but not a point-in-time snapshot, which is
// exactly the consistency /metrics needs.
type shardedCounter struct {
	cells [counterShards]paddedCell
}

func (c *shardedCounter) Add(delta int64) {
	c.cells[rand.Uint32()%counterShards].v.Add(delta)
}

func (c *shardedCounter) Load() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// routeMetrics accumulates per-route request statistics. Every field is
// atomic (the busiest ones sharded); the observe path takes no lock and
// touches no shared cache line beyond its own shard and histogram bucket.
type routeMetrics struct {
	count       shardedCounter
	errors      atomic.Int64 // responses with status >= 400 (rare: unsharded)
	totalMicros shardedCounter
	maxMicros   atomic.Int64
	hist        [histBuckets]atomic.Int64
}

func (rm *routeMetrics) observe(d time.Duration, status int) {
	us := d.Microseconds()
	rm.count.Add(1)
	if status >= 400 {
		rm.errors.Add(1)
	}
	rm.totalMicros.Add(us)
	for {
		old := rm.maxMicros.Load()
		if us <= old || rm.maxMicros.CompareAndSwap(old, us) {
			break
		}
	}
	b := 0
	for b < histBuckets-1 && int64(1)<<b <= us {
		b++
	}
	rm.hist[b].Add(1)
}

// quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1)
// in microseconds from the power-of-two histogram.
func (rm *routeMetrics) quantile(q float64) int64 {
	total := int64(0)
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = rm.hist[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := int64(float64(total) * q)
	if target < 1 {
		target = 1
	}
	seen := int64(0)
	for i, c := range counts {
		seen += c
		if seen >= target {
			return int64(1) << i // bucket upper bound
		}
	}
	return rm.maxMicros.Load()
}

// ledger accumulates the PRAM work/depth charged to one algorithm family
// across all requests — the serving-side continuation of the paper's
// work/depth accounting (DESIGN.md §3).
type ledger struct {
	ops   atomic.Int64 // requests that charged this ledger
	work  atomic.Int64
	depth atomic.Int64
}

// Metrics is the server-wide observability state behind GET /metrics.
// The request path is entirely lock-free: route lookup reads an immutable
// copy-on-write map, counters are atomics, and the only mutex in the type
// serializes the (rare) registration of a new route pattern.
type Metrics struct {
	start time.Time

	// routes is an immutable map, swapped wholesale on insert. Readers
	// Load and index with no synchronization; writers clone under addMu.
	routes atomic.Pointer[map[string]*routeMetrics]
	addMu  sync.Mutex

	algos map[string]*ledger // fixed key set, created up front; read-only map

	rejected atomic.Int64 // 429s from the limiter
	timeouts atomic.Int64 // 503s from per-request deadlines
	panics   atomic.Int64 // requests converted to 500 by the recover wrapper

	// Resilience counters (breaker.go): fully exhausted Las Vegas requests,
	// circuit-breaker opens, and completed background recoveries.
	fpExhaustions     atomic.Int64
	breakerOpens      atomic.Int64
	breakerRecoveries atomic.Int64

	// Inbound RPC-resilience counters (DESIGN.md §16): requests shed
	// because the propagated deadline budget fell below the hop floor,
	// and requests answered from a local replica because every owner was
	// unreachable. The outbound counters (per-peer breakers, retry
	// budget, injected faults) live in the resilience.Pool.
	deadlineSheds atomic.Int64
	staleServes   atomic.Int64

	// Streaming endpoints. streamActive is a gauge (in-flight streams);
	// the rest are totals across completed and in-flight streams.
	streamActive   atomic.Int64
	streamStarted  atomic.Int64
	streamSegments atomic.Int64 // windows processed across all streams
	streamEvents   atomic.Int64 // NDJSON events / decompressed tokens emitted
	streamBytes    atomic.Int64 // text bytes in (match) or out (decompress)

	// Snapshot cache (internal/persist). cacheHits/cacheMisses count
	// create-time lookups; loads counts every successful snapshot decode
	// (cache hits, warm boots, explicit restores) with loadNanos their total
	// wall time; snapshotSaves/snapshotBytes count write-throughs and
	// explicit snapshots. Quarantine counts live on the persist.Store itself
	// (the single authority — it performs the renames); handleMetrics copies
	// them into the snapshot.
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	snapshotSaves atomic.Int64
	snapshotBytes atomic.Int64
	loads         atomic.Int64
	loadNanos     atomic.Int64

	// Dense serving path (dense.go). denseServed/denseFallback split the
	// match requests on dense-enabled servers by which engine answered;
	// denseVerifyPass/denseVerifyFail count canary turns of /match and
	// /match/stream that agreed with the walk or failed;
	// denseCompiles/denseCompileNanos/denseCompileFails and denseTableBytes
	// account the compile stage, repairs included; denseLoads counts
	// automata restored from DENSE snapshot sections — dictionaries that
	// skipped compilation entirely. certified/certifyFail count certificate
	// runs that passed or failed (oracle.go) and certifyNanos the time they
	// took. oracleNanos is the wall time of every canary walk.
	denseServed       atomic.Int64
	denseFallback     atomic.Int64
	denseVerifyPass   atomic.Int64
	denseVerifyFail   atomic.Int64
	denseCompiles     atomic.Int64
	denseCompileNanos atomic.Int64
	denseCompileFails atomic.Int64
	denseTableBytes   atomic.Int64
	denseLoads        atomic.Int64
	certified         atomic.Int64
	certifyFail       atomic.Int64
	certifyNanos      atomic.Int64
	oracleNanos       atomic.Int64

	// Compressed-domain matching (czsearch.go). czServed/czExpanded/
	// czFallback split the compressed-match requests by engine (the
	// scanner's token mode, its expand-and-scan mode, decompress-and-tree-
	// walk); the byte counters expose the economics —
	// czBytesRepresented is what the streams stood for, czBytesTouched what
	// the automaton actually consumed; czVerifyPass/czVerifyFail count
	// canary turns, each a decompress-then-walk of the container.
	czServed           atomic.Int64
	czExpanded         atomic.Int64
	czFallback         atomic.Int64
	czTokens           atomic.Int64
	czBytesRepresented atomic.Int64
	czBytesTouched     atomic.Int64
	czMemoHits         atomic.Int64
	czVerifyPass       atomic.Int64
	czVerifyFail       atomic.Int64

	// Cluster mode (cluster.go). clusterProxied counts requests this node
	// forwarded to an owner (create forwards included); clusterHedged the
	// proxied requests that fired a timer-triggered second copy and
	// clusterHedgeWon those where that extra copy answered first;
	// clusterReplPulls/clusterReplBytes the snapshot bundles pulled from
	// peers to fill local gaps. Peer health transitions live on the
	// cluster.Health tracker and are copied into the snapshot.
	clusterProxied   atomic.Int64
	clusterHedged    atomic.Int64
	clusterHedgeWon  atomic.Int64
	clusterReplPulls atomic.Int64
	clusterReplBytes atomic.Int64
}

// pramAlgos is the fixed set of ledger keys. Registration charges
// "preprocess" (including Las Vegas reseeds); the request handlers charge
// the rest.
var pramAlgos = []string{"preprocess", "match", "check", "compress", "uncompress", "parse"}

func newMetrics() *Metrics {
	mt := &Metrics{
		start: time.Now(),
		algos: make(map[string]*ledger, len(pramAlgos)),
	}
	empty := make(map[string]*routeMetrics)
	mt.routes.Store(&empty)
	for _, a := range pramAlgos {
		mt.algos[a] = &ledger{}
	}
	return mt
}

// route returns (creating if needed) the stats bucket for a route pattern.
// The fast path is a lock-free map read; creation clones the map under
// addMu and publishes the copy atomically (routes are registered at mux
// build time, so in practice the clone path runs a dozen times at startup
// and never again).
func (mt *Metrics) route(pattern string) *routeMetrics {
	if rm, ok := (*mt.routes.Load())[pattern]; ok {
		return rm
	}
	mt.addMu.Lock()
	defer mt.addMu.Unlock()
	cur := *mt.routes.Load()
	if rm, ok := cur[pattern]; ok {
		return rm
	}
	next := make(map[string]*routeMetrics, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	rm := &routeMetrics{}
	next[pattern] = rm
	mt.routes.Store(&next)
	return rm
}

// ChargePRAM adds work/depth to the named algorithm ledger. Unknown names
// are dropped rather than allocated so a typo cannot grow the map forever.
func (mt *Metrics) ChargePRAM(algo string, work, depth int64) {
	l, ok := mt.algos[algo]
	if !ok {
		return
	}
	l.ops.Add(1)
	l.work.Add(work)
	l.depth.Add(depth)
}

// routeSnapshot is the JSON shape of one route's statistics.
type routeSnapshot struct {
	Count       int64   `json:"count"`
	Errors      int64   `json:"errors"`
	AvgMicros   float64 `json:"avgMicros"`
	P50Micros   int64   `json:"p50Micros"`
	P95Micros   int64   `json:"p95Micros"`
	P99Micros   int64   `json:"p99Micros"`
	MaxMicros   int64   `json:"maxMicros"`
	HistPow2Mic []int64 `json:"histPow2Micros"`
}

// ledgerSnapshot is the JSON shape of one algorithm's PRAM ledger.
type ledgerSnapshot struct {
	Ops   int64 `json:"ops"`
	Work  int64 `json:"work"`
	Depth int64 `json:"depth"`
}

// streamsSnapshot is the JSON shape of the streaming counters.
type streamsSnapshot struct {
	Active   int64 `json:"active"`
	Started  int64 `json:"started"`
	Segments int64 `json:"segments"`
	Events   int64 `json:"events"`
	Bytes    int64 `json:"bytes"`
}

// persistSnapshot is the JSON shape of the snapshot-cache counters.
// Quarantines and QuarantineFails come from the persist.Store counters
// (filled in by handleMetrics when a store is configured).
type persistSnapshot struct {
	Enabled         bool  `json:"enabled"`
	CacheHits       int64 `json:"cacheHits"`
	CacheMisses     int64 `json:"cacheMisses"`
	SnapshotSaves   int64 `json:"snapshotSaves"`
	SnapshotBytes   int64 `json:"snapshotBytes"`
	Loads           int64 `json:"loads"`
	LoadNanos       int64 `json:"loadNanos"`
	Quarantines     int64 `json:"quarantines"`
	QuarantineFails int64 `json:"quarantineFails"`
}

// denseSnapshot is the JSON shape of the dense serving-path counters.
type denseSnapshot struct {
	Served       int64 `json:"served"`       // match requests answered by the dense engine
	Fallback     int64 `json:"fallback"`     // dense-enabled requests that fell back to the tree walk
	VerifyPass   int64 `json:"verifyPass"`   // canary turns that agreed with the walk
	VerifyFail   int64 `json:"verifyFail"`   // canary turns that diverged (request failed)
	Certified    int64 `json:"certified"`    // certificates that passed
	CertifyFail  int64 `json:"certifyFail"`  // certificates that failed (table recompiled, or the entry fails)
	CertifyNanos int64 `json:"certifyNanos"` // total certificate wall time
	Compiles     int64 `json:"compiles"`     // automata compiled by this process
	CompileNanos int64 `json:"compileNanos"` // total compile wall time
	CompileFails int64 `json:"compileFails"` // compiles refused (table budget)
	TableBytes   int64 `json:"tableBytes"`   // total transition-table bytes compiled
	Loads        int64 `json:"loads"`        // automata restored from DENSE sections (zero compile)
	OracleNanos  int64 `json:"oracleNanos"`  // wall time of every canary walk
}

// czSnapshot is the JSON shape of the compressed-domain matching counters.
type czSnapshot struct {
	Served           int64 `json:"served"`           // requests answered by the token-stream scanner
	Expanded         int64 `json:"expanded"`         // requests the scanner expanded and ran through a dense cursor
	Fallback         int64 `json:"fallback"`         // requests decompressed and tree-walked instead
	Tokens           int64 `json:"tokens"`           // tokens scanned across all requests
	BytesRepresented int64 `json:"bytesRepresented"` // text bytes the streams stood for
	BytesTouched     int64 `json:"bytesTouched"`     // bytes actually fed through the automaton
	MemoHits         int64 `json:"memoHits"`         // copy tokens replayed from the memo cache
	VerifyPass       int64 `json:"verifyPass"`       // canary turns that agreed with the walk
	VerifyFail       int64 `json:"verifyFail"`       // canary turns that diverged (request failed)
}

// clusterSnapshot is the JSON shape of the cluster section. OwnedDicts
// counts resident dictionaries this node is primary for, ReplicatedDicts
// the resident rest (replica-owned or pulled).
type clusterSnapshot struct {
	Enabled          bool   `json:"enabled"`
	Self             string `json:"self,omitempty"`
	Peers            int    `json:"peers,omitempty"`
	Replicas         int    `json:"replicas,omitempty"`
	OwnedDicts       int    `json:"ownedDicts"`
	ReplicatedDicts  int    `json:"replicatedDicts"`
	Proxied          int64  `json:"proxied"`
	Hedged           int64  `json:"hedged"`
	HedgeWon         int64  `json:"hedgeWon"`
	ReplicationPulls int64  `json:"replicationPulls"`
	ReplicationBytes int64  `json:"replicationBytes"`
	PeerTransitions  int64  `json:"peerTransitions"`
}

// resilienceSnapshot is the JSON shape of the fault-recovery counters.
type resilienceSnapshot struct {
	FpExhaustions     int64 `json:"fpExhaustions"`
	BreakerOpens      int64 `json:"breakerOpens"`
	BreakerRecoveries int64 `json:"breakerRecoveries"`
	// Rpc is the outbound-RPC resilience section, present only in
	// cluster mode (filled by Server.rpcMetrics, not Snapshot).
	Rpc *rpcSnapshot `json:"rpc,omitempty"`
}

// rpcSnapshot is the cluster RPC resilience section of /metrics: the
// pool's per-peer breaker accounting plus the server-side shed/stale
// counters.
type rpcSnapshot struct {
	resilience.Snapshot
	DeadlineSheds int64 `json:"deadlineSheds"`
	StaleServes   int64 `json:"staleServes"`
}

// recordLoad charges one successful snapshot load.
func (mt *Metrics) recordLoad(d time.Duration) {
	mt.loads.Add(1)
	mt.loadNanos.Add(d.Nanoseconds())
}

// recordSave charges one snapshot written to the store.
func (mt *Metrics) recordSave(bytes int) {
	mt.snapshotSaves.Add(1)
	mt.snapshotBytes.Add(int64(bytes))
}

// MetricsSnapshot is the GET /metrics payload.
type MetricsSnapshot struct {
	UptimeSeconds float64                   `json:"uptimeSeconds"`
	Requests      map[string]routeSnapshot  `json:"requests"`
	PRAM          map[string]ledgerSnapshot `json:"pram"`
	Registry      RegistrySnapshot          `json:"registry"`
	Limiter       limiterSnapshot           `json:"limiter"`
	Streams       streamsSnapshot           `json:"streams"`
	Persist       persistSnapshot           `json:"persist"`
	Dense         denseSnapshot             `json:"dense"`
	Cz            czSnapshot                `json:"czsearch"`
	Cluster       clusterSnapshot           `json:"cluster"`
	Quota         quotaSnapshot             `json:"quota"`
	Resilience    resilienceSnapshot        `json:"resilience"`
	Timeouts      int64                     `json:"timeouts"`
	Panics        int64                     `json:"panics"`
	RouteOrder    []string                  `json:"routeOrder"`
}

type limiterSnapshot struct {
	Inflight int   `json:"inflight"`
	Capacity int   `json:"capacity"`
	Rejected int64 `json:"rejected"`
}

// Snapshot assembles the full metrics payload.
func (mt *Metrics) Snapshot(reg *Registry, lim *Limiter) MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(mt.start).Seconds(),
		Requests:      make(map[string]routeSnapshot),
		PRAM:          make(map[string]ledgerSnapshot, len(mt.algos)),
		Timeouts:      mt.timeouts.Load(),
		Panics:        mt.panics.Load(),
		Streams: streamsSnapshot{
			Active:   mt.streamActive.Load(),
			Started:  mt.streamStarted.Load(),
			Segments: mt.streamSegments.Load(),
			Events:   mt.streamEvents.Load(),
			Bytes:    mt.streamBytes.Load(),
		},
		Persist: persistSnapshot{
			CacheHits:     mt.cacheHits.Load(),
			CacheMisses:   mt.cacheMisses.Load(),
			SnapshotSaves: mt.snapshotSaves.Load(),
			SnapshotBytes: mt.snapshotBytes.Load(),
			Loads:         mt.loads.Load(),
			LoadNanos:     mt.loadNanos.Load(),
		},
		Dense: denseSnapshot{
			Served:       mt.denseServed.Load(),
			Fallback:     mt.denseFallback.Load(),
			VerifyPass:   mt.denseVerifyPass.Load(),
			VerifyFail:   mt.denseVerifyFail.Load(),
			Certified:    mt.certified.Load(),
			CertifyFail:  mt.certifyFail.Load(),
			CertifyNanos: mt.certifyNanos.Load(),
			Compiles:     mt.denseCompiles.Load(),
			CompileNanos: mt.denseCompileNanos.Load(),
			CompileFails: mt.denseCompileFails.Load(),
			TableBytes:   mt.denseTableBytes.Load(),
			Loads:        mt.denseLoads.Load(),
			OracleNanos:  mt.oracleNanos.Load(),
		},
		Cz: czSnapshot{
			Served:           mt.czServed.Load(),
			Expanded:         mt.czExpanded.Load(),
			Fallback:         mt.czFallback.Load(),
			Tokens:           mt.czTokens.Load(),
			BytesRepresented: mt.czBytesRepresented.Load(),
			BytesTouched:     mt.czBytesTouched.Load(),
			MemoHits:         mt.czMemoHits.Load(),
			VerifyPass:       mt.czVerifyPass.Load(),
			VerifyFail:       mt.czVerifyFail.Load(),
		},
		Resilience: resilienceSnapshot{
			FpExhaustions:     mt.fpExhaustions.Load(),
			BreakerOpens:      mt.breakerOpens.Load(),
			BreakerRecoveries: mt.breakerRecoveries.Load(),
		},
	}
	routes := *mt.routes.Load()
	patterns := make([]string, 0, len(routes))
	for p := range routes {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	snap.RouteOrder = patterns
	for _, p := range patterns {
		rm := routes[p]
		n := rm.count.Load()
		rs := routeSnapshot{
			Count:     n,
			Errors:    rm.errors.Load(),
			P50Micros: rm.quantile(0.50),
			P95Micros: rm.quantile(0.95),
			P99Micros: rm.quantile(0.99),
			MaxMicros: rm.maxMicros.Load(),
		}
		if n > 0 {
			rs.AvgMicros = float64(rm.totalMicros.Load()) / float64(n)
		}
		rs.HistPow2Mic = make([]int64, histBuckets)
		for i := range rs.HistPow2Mic {
			rs.HistPow2Mic[i] = rm.hist[i].Load()
		}
		snap.Requests[p] = rs
	}
	for name, l := range mt.algos {
		snap.PRAM[name] = ledgerSnapshot{Ops: l.ops.Load(), Work: l.work.Load(), Depth: l.depth.Load()}
	}
	if reg != nil {
		snap.Registry = reg.Snapshot()
	}
	if lim != nil {
		snap.Limiter = limiterSnapshot{
			Inflight: lim.Inflight(),
			Capacity: lim.Capacity(),
			Rejected: lim.Rejected(),
		}
	}
	return snap
}

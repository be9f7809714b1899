// Command matchd serves the paper's algorithms over HTTP: dictionary
// matching (§3) against a registry of preprocessed dictionaries, LZ1
// compression/uncompression (§4), and optimal static parsing (§5).
//
// Usage:
//
//	matchd [-addr :8080] [-procs N] [-max-dicts N] [-max-inflight N] \
//	       [-timeout 30s] [-max-body BYTES] [-stream-window BYTES] \
//	       [-cache-dir DIR] [-dense on|off] [-dense-max-table BYTES] \
//	       [-pprof-addr ADDR] [-chaos-seed N -chaos-plan SPEC] \
//	       [-cluster-peers LIST -cluster-self NAME] [-replicas N] \
//	       [-hedge-after D] [-quota-per-tenant N] \
//	       [-breaker-failures N] [-breaker-cooldown D] [-retry-budget PCT] \
//	       [-hop-floor D] [-rpc-fault-admin]
//
// Endpoints (JSON bodies; binary payloads base64 in "textB64"/"dataB64"):
//
//	POST   /v1/dicts              register {"patterns": [...]} once → {"id": "d1"}
//	GET    /v1/dicts              list resident dictionaries (MRU first)
//	GET    /v1/dicts/{id}         one dictionary's stats
//	DELETE /v1/dicts/{id}         drop a dictionary
//	POST   /v1/dicts/{id}/match   {"text": ...} → longest pattern per position
//	POST   /v1/dicts/{id}/parse   {"text": ...} → §5 optimal word references
//	POST   /v1/dicts/{id}/expand  {"refs": [...]} → original text
//	POST   /v1/compress           {"text": ...} → LZ1R1 container (base64)
//	POST   /v1/decompress         {"dataB64": ...} → original text
//	GET    /metrics               counters, latency histograms, PRAM ledger
//	GET    /healthz               liveness
//	GET    /readyz                readiness: pool, registry, store health
//
// Persistence (enabled by -cache-dir DIR): registered dictionaries are
// written through to DIR as content-addressed snapshot files (patterns,
// seed and compiled automaton), a restart warm-loads them with zero
// preprocessing, and POST /v1/dicts with a pattern set already in the cache
// loads instead of compiling. Admin endpoints:
//
//	POST /v1/dicts/{id}/snapshot  serialize a resident dictionary → {"key": ...}
//	POST /v1/dicts/restore        {"key": ...} → load a snapshot into the registry
//
// Dense serving (-dense, default on): POST /v1/dicts compiles each
// dictionary into a flat-table automaton (internal/dense) before it answers,
// and the match routes serve from it deterministically from the first
// request on; the §3 preprocessing runs only when something asks for the
// tree (/parse, /expand). Under -dense off, or when the table would exceed
// -dense-max-table, the dictionary is published without one, preprocessed
// at publish, and the Las Vegas tree walk serves it. Each automaton is
// certified against its patterns (ahocorasick.Certify) by the first request
// that reads it — a table that fails is recompiled and certified again, and
// an entry whose recompile fails too answers every request with an error —
// and request 1 of each route and every 1024th also walk the certified table
// naively as a canary: a divergence fails that request. Snapshots written
// with -cache-dir carry the compiled form (DENSE section), so a restart
// skips compilation too. The response's "engine" field and the /metrics
// "dense" section show which path served.
//
// Profiling (-pprof-addr, off by default): when set, net/http/pprof is
// served on a SEPARATE listener at that address (e.g. localhost:6060) —
// never on the service port, so profiling is not exposed where the API is.
//
// Streaming endpoints (raw bodies, no -max-body cap, no request deadline —
// resident memory is bounded by the 1 MiB segment, not by the text):
//
//	POST /v1/dicts/{id}/match/stream   text bytes in → NDJSON events out,
//	                                   flushed per segment; "?segment=N"
//	                                   overrides the window size per request
//	POST /v1/decompress/stream         LZ1R1 container in → raw bytes out,
//	                                   retaining -stream-window history
//
// e.g.  curl -N --data-binary @big.txt :8080/v1/dicts/d1/match/stream
//
// Cluster mode (-cluster-peers + -cluster-self): N matchd processes with
// the same static peer table form a sharded, replicated cluster. Dictionary
// IDs become content addresses (the snapshot key of the pattern set), placed
// on -replicas owners by consistent hashing; any node answers any request —
// non-owners proxy to an owner, owners missing a dictionary pull its DMSNAP
// bundle from a peer's GET /v1/dicts/{id}/snapshot with zero
// re-preprocessing. Proxied requests hedge a second replica after
// -hedge-after; peers failing /readyz probes are skipped. GET /v1/cluster
// reports membership, health and placement, and /metrics gains a "cluster"
// section. -quota-per-tenant additionally caps concurrent requests per
// X-Tenant header value on every node, e.g.
//
//	matchd -addr :8081 -cluster-self n1 -cache-dir /var/a \
//	    -cluster-peers 'n1=http://10.0.0.1:8081,n2=http://10.0.0.2:8081,n3=http://10.0.0.3:8081' \
//	    -replicas 2 -hedge-after 20ms
//
// Partition tolerance (cluster mode, DESIGN.md §16): every outbound RPC —
// proxying, hedging, snapshot pulls, health probes — runs through a
// per-peer resilience layer. Circuit breakers open a peer after
// -breaker-failures consecutive failures (or a high error rate) and
// re-close via /readyz-probe-gated half-open trials after
// -breaker-cooldown; retries for idempotent GETs and snapshot pulls draw
// from a cluster-wide token budget (-retry-budget percent of request
// rate); deadlines propagate across hops via X-Deadline-Ms, and a hop
// whose remaining budget is below -hop-floor sheds immediately with 503.
// When every owner of a dictionary is unreachable but a local replica or
// cached bundle exists, the node serves it with X-Served-Stale: true
// rather than failing with 502. The /metrics "resilience.rpc" section
// reports breaker states, retries spent/denied, deadline sheds, stale
// serves, and injected faults. For chaos drills, -rpc-fault-admin mounts
// POST /v1/rpcfaults to inject wire faults (connection refusal,
// black-hole, delay, mid-body reset — per-peer, so partitions can be
// asymmetric) into the outbound pool at runtime. Unlike -chaos-plan, rpc.*
// faults work in any build.
//
// The process drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM.
//
// Fault injection (soak testing): a binary built with -tags chaos accepts
// -chaos-seed and -chaos-plan, installing a deterministic fault schedule
// (internal/chaos) before serving, e.g.
//
//	go run -tags chaos ./cmd/matchd -chaos-seed 42 \
//	    -chaos-plan 'fp.collide:p=0.001;pool.delay:p=0.01,delay=1ms'
//
// Without the tag the flags still parse, but a non-empty -chaos-plan is a
// startup error rather than a silent no-op. Per-point fired/call counters
// are logged at shutdown.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers debug handlers on DefaultServeMux; served only via -pprof-addr
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("matchd: ")
	addr := flag.String("addr", ":8080", "listen address")
	procs := flag.Int("procs", 0, "worker goroutines per request (0 = GOMAXPROCS)")
	maxDicts := flag.Int("max-dicts", 64, "resident dictionaries before LRU eviction")
	maxInflight := flag.Int("max-inflight", 256, "concurrent requests before shedding with 429")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	maxBody := flag.Int64("max-body", 32<<20, "request body limit in bytes (buffered endpoints only)")
	streamWindow := flag.Int("stream-window", 0, "streaming decompress: retained history bytes (0 = unbounded)")
	cacheDir := flag.String("cache-dir", "", "snapshot cache directory: warm start from it and write registered dictionaries through ('' = off)")
	denseMode := flag.String("dense", "on", "dense serving path: on (compile at registration, before the dictionary is published) or off (tree walk only)")
	denseMaxTable := flag.Int64("dense-max-table", 0, "dense transition-table byte budget per dictionary (0 = 256 MiB); over-budget dictionaries stay on the tree walk")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address, e.g. localhost:6060 ('' = off)")
	clusterPeers := flag.String("cluster-peers", "", "static cluster membership as 'name=url,...' (or bare URLs); '' = single-node mode")
	clusterSelf := flag.String("cluster-self", "", "this node's name in -cluster-peers (required with -cluster-peers)")
	replicas := flag.Int("replicas", 2, "cluster: owners per dictionary (clamped to the peer count)")
	hedgeAfter := flag.Duration("hedge-after", 25*time.Millisecond, "cluster: latency budget before a proxied request hedges a second replica")
	quotaPerTenant := flag.Int("quota-per-tenant", 0, "concurrent requests allowed per X-Tenant value before shedding with 429 (0 = off)")
	breakerFailures := flag.Int("breaker-failures", 5, "cluster: consecutive outbound RPC failures before a peer's circuit breaker opens (0 = breakers off)")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second, "cluster: open-breaker dwell before a half-open trial is admitted")
	retryBudget := flag.Int("retry-budget", 10, "cluster: retries allowed as a percent of outbound request rate (0 = retries off)")
	hopFloor := flag.Duration("hop-floor", 5*time.Millisecond, "cluster: minimum propagated deadline budget; requests arriving with less are shed with 503 (0 = off)")
	rpcFaultAdmin := flag.Bool("rpc-fault-admin", false, "cluster: mount POST/GET /v1/rpcfaults for wire-fault injection (chaos drills only; never expose in production)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "seed for the -chaos-plan fault schedule")
	chaosPlan := flag.String("chaos-plan", "", "deterministic fault-injection plan, e.g. 'fp.collide:p=0.001;pool.delay:p=0.01,delay=1ms' (requires a -tags chaos build)")
	flag.Parse()

	if *chaosPlan != "" {
		if !chaos.Compiled {
			log.Fatal("-chaos-plan set but this binary was built without -tags chaos; rebuild with `go build -tags chaos ./cmd/matchd`")
		}
		plan, err := chaos.ParsePlan(*chaosSeed, *chaosPlan)
		if err != nil {
			log.Fatal(err)
		}
		chaos.Install(plan)
		log.Printf("chaos: armed with seed %d: %s", *chaosSeed, plan)
	}

	var peers []cluster.Peer
	if *clusterPeers != "" {
		var err error
		if peers, err = cluster.ParsePeers(*clusterPeers); err != nil {
			log.Fatalf("-cluster-peers: %v", err)
		}
		if *clusterSelf == "" {
			log.Fatal("-cluster-peers requires -cluster-self")
		}
	} else if *clusterSelf != "" {
		log.Fatal("-cluster-self set without -cluster-peers")
	}

	srv, err := server.New(server.Config{
		Addr:           *addr,
		Procs:          *procs,
		MaxDicts:       *maxDicts,
		MaxInflight:    *maxInflight,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		StreamWindow:   *streamWindow,
		CacheDir:       *cacheDir,
		Log:            log.Default(),

		DenseMode:          *denseMode,
		DenseMaxTableBytes: *denseMaxTable,

		ClusterSelf:       *clusterSelf,
		ClusterPeers:      peers,
		ClusterReplicas:   *replicas,
		ClusterHedgeAfter: *hedgeAfter,
		QuotaPerTenant:    *quotaPerTenant,

		BreakerFailures: *breakerFailures,
		BreakerCooldown: *breakerCooldown,
		RetryBudgetPct:  *retryBudget,
		HopFloor:        *hopFloor,
		RPCFaultAdmin:   *rpcFaultAdmin,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAddr != "" {
		// pprof registers on http.DefaultServeMux at import; serve that mux on
		// its own listener so profiling never shares the API port.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener failed: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err = srv.Run(ctx)
	srv.Close() // stop cluster health probes
	if err != nil {
		log.Fatal(err)
	}
	if p := chaos.Active(); p != nil {
		for _, st := range p.Stats() {
			log.Printf("chaos: %s fired %d of %d calls", st.Point, st.Fired, st.Calls)
		}
	}
	log.Print("clean shutdown")
}

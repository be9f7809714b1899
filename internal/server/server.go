// Package server exposes the repo's three headline algorithms — dictionary
// matching (§3), LZ1 compression (§4), and optimal static-dictionary
// parsing (§5) — as a long-running HTTP service.
//
// The paper's central economic argument is that dictionary preprocessing is
// paid once and amortized over many texts; the one-shot CLIs in cmd/ pay it
// on every invocation. This package keeps prepared dictionaries resident in
// a bounded LRU registry (registry.go) so the service runs in the
// preprocess-once/match-many regime the paper (and the follow-up serving
// literature, PAPERS.md) actually targets.
//
// Layers:
//
//   - Registry: concurrent-safe dictionary store with LRU eviction;
//     evicted entries stay usable by in-flight requests. An entry is
//     published with its compiled dense automaton (dense.go) already on it
//     and never changes engine afterwards; its §3 dictionary is built only
//     when something asks for the tree.
//   - Handlers: JSON endpoints under /v1 (handlers.go); large match texts
//     are sharded across a worker pool with pattern-length halos
//     (match.go), mirroring internal/distrib's workstation sharding.
//   - Robustness/observability: per-request timeouts via context, a
//     semaphore admission limiter that sheds with 429 (limiter.go),
//     graceful shutdown, and GET /metrics reporting request counts,
//     latency histograms, registry occupancy, and the per-algorithm PRAM
//     work/depth ledger (metrics.go).
//
// Only the standard library is used; go.mod stays dependency-free.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/resilience"
)

// Config parameterizes a Server. The zero value is usable; fillDefaults
// supplies production-ish settings.
type Config struct {
	Addr           string        // listen address, e.g. ":8080"
	Procs          int           // PRAM workers per request (0 = GOMAXPROCS)
	MaxDicts       int           // registry capacity (resident dictionaries)
	MaxInflight    int           // concurrent /v1 requests before 429
	RequestTimeout time.Duration // per-request deadline
	ShutdownGrace  time.Duration // drain window on shutdown
	MaxBodyBytes   int64         // request body cap (buffered endpoints only)
	MaxDictBytes   int64         // total pattern bytes per dictionary
	MaxExpandBytes int64         // decompression/expansion output cap
	StreamWindow   int           // streaming decompress: retained history (0 = unbounded)
	CacheDir       string        // snapshot cache directory ("" = persistence off)
	Log            *log.Logger   // nil = log.Default

	// DenseMode selects the engine of the match routes: "on" (default —
	// every registration compiles the dictionary's automaton before the
	// entry is published) or "off" (tree walk only). DenseMaxTableBytes caps
	// the transition table a compile may build (0 =
	// dense.DefaultMaxTableBytes); an over-budget dictionary is published
	// without an automaton and serves from the tree walk.
	DenseMode          string
	DenseMaxTableBytes int64

	// Cluster mode (cluster.go): a non-empty ClusterPeers table (which must
	// contain ClusterSelf) turns this node into a cluster member. Dictionary
	// IDs become content addresses placed on ClusterReplicas owners by
	// consistent hashing; non-owner nodes proxy dictionary traffic to the
	// owners, hedging a second copy after ClusterHedgeAfter (0 = no hedging,
	// strict failover). Peers are probed via /readyz every
	// ClusterProbeInterval (0 = 1s).
	ClusterSelf          string
	ClusterPeers         []cluster.Peer
	ClusterReplicas      int
	ClusterHedgeAfter    time.Duration
	ClusterProbeInterval time.Duration

	// Outbound RPC resilience (internal/resilience, DESIGN.md §16). Every
	// zero value disables its policy, so non-cluster servers and existing
	// cluster configurations are unaffected. BreakerFailures consecutive
	// outbound failures open a peer's circuit breaker (BreakerCooldown,
	// default 1s, before a half-open trial); RetryBudgetPct retry tokens
	// are earned per 100 outbound requests for idempotent re-sends;
	// HopFloor is the minimum remaining deadline worth doing work for — a
	// request arriving with less (via the X-Deadline-Ms header) or a
	// proxy hop that would forward less sheds with 503+Retry-After.
	// RPCFaultAdmin enables POST /v1/rpcfaults for installing wire-fault
	// plans at runtime (soak harnesses only).
	BreakerFailures int
	BreakerCooldown time.Duration
	RetryBudgetPct  int
	HopFloor        time.Duration
	RPCFaultAdmin   bool

	// QuotaPerTenant bounds concurrent in-flight requests per X-Tenant
	// header value, under the global MaxInflight semaphore (0 = no
	// per-tenant quotas). Requests without the header see only the global
	// limit.
	QuotaPerTenant int
}

func (c *Config) fillDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Procs <= 0 {
		c.Procs = runtime.GOMAXPROCS(0)
	}
	if c.MaxDicts <= 0 {
		c.MaxDicts = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxDictBytes <= 0 {
		c.MaxDictBytes = 16 << 20
	}
	if c.MaxExpandBytes <= 0 {
		c.MaxExpandBytes = 256 << 20
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	if c.DenseMode == "" {
		c.DenseMode = DenseOn
	}
}

// Server is the matching/compression service.
type Server struct {
	cfg     Config
	reg     *Registry
	metrics *Metrics
	limiter *Limiter
	quota   *TenantQuota   // nil when per-tenant quotas are off
	store   *persist.Store // nil when persistence is off
	cluster *clusterState  // nil outside cluster mode
	sweep   persist.SweepReport
	handler http.Handler
}

// New assembles a server from cfg. With a CacheDir the snapshot store is
// opened (created if missing), swept — every file's framing, CRCs, header
// and patterns checked, no table decoded — and every valid snapshot already
// in it is
// loaded into the registry: its patterns read and its DENSE section
// restored, one bounds-checked copy per bundle, with no §3 section decoded
// and no §3 preprocessing, so the PRAM preprocess ledger stays at zero
// across a restart (-dense off builds each entry's §3 stage at publish, and
// charges it). Corrupt cache entries are quarantined and logged, never
// fatal.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.DenseMode != DenseOn && cfg.DenseMode != DenseOff {
		return nil, fmt.Errorf("server: invalid DenseMode %q (want %s|%s)", cfg.DenseMode, DenseOn, DenseOff)
	}
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(cfg.MaxDicts),
		metrics: newMetrics(),
		limiter: NewLimiter(cfg.MaxInflight),
		quota:   NewTenantQuota(cfg.QuotaPerTenant),
	}
	s.reg.SetLogf(cfg.Log.Printf)
	if len(cfg.ClusterPeers) > 0 {
		c, err := newClusterState(&cfg, s.metrics)
		if err != nil {
			return nil, err
		}
		s.cluster = c
	}
	if cfg.CacheDir != "" {
		store, err := persist.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		store.SetLogf(cfg.Log.Printf)
		s.store = store
		s.warmStart()
	}
	s.handler = s.buildMux()
	return s, nil
}

// loadedBundle is what loadFromStore made resident, and from what.
type loadedBundle struct {
	entry   *Entry
	evicted []string
	bytes   int  // size of the bundle file
	dense   bool // it carried a compiled automaton
}

// loadFromStore makes the bundle stored under key resident as id ("" = the
// registry assigns d<seq>), with its automaton (automatonFor). GetBundle
// reads the file once and decodes no §3 section. source labels it: "cache"
// when the server went to its cache for the bundle, "snapshot" for an
// explicit restore. On error nothing is registered (GetBundle has already
// quarantined and counted an invalid file).
func (s *Server) loadFromStore(id string, key persist.Key, source string) (loadedBundle, error) {
	start := time.Now()
	b, size, err := s.store.GetBundle(key)
	if err != nil {
		return loadedBundle{}, err
	}
	return s.loadBundle(id, key, b, size, source, start), nil
}

// loadBundle makes a bundle opened from the snapshot store resident: the
// one way a file there becomes an entry. start is when its read began. A
// bundle without DENSE that is compiled here is rewritten once in the
// automaton form, before the entry is published, when its key is the KeyFor
// content address — never an explicit snapshot's, which is the hash of its
// bytes.
func (s *Server) loadBundle(id string, key persist.Key, b *persist.Bundle, size int, source string, start time.Time) loadedBundle {
	s.metrics.recordLoad(time.Since(start))
	loaded := b.Automaton != nil
	var compiled bool
	b.Automaton, compiled = s.automatonFor(b.Patterns, b.Automaton)
	prepNs := time.Since(start).Nanoseconds()
	if compiled && key == persist.KeyFor(b.Patterns, core.Options{Seed: b.Options.Seed}) {
		s.recordPut(s.store.PutBytes(key, b.Encode()))
	}
	e, evicted := s.publish(id, b, source, key.String(), prepNs)
	return loadedBundle{entry: e, evicted: evicted, bytes: size, dense: loaded}
}

// publish inserts a bundle into the registry. An entry without an automaton
// (-dense off, or a refused compile) is served by the tree walk, so its §3
// stage is built here, before publish returns.
func (s *Server) publish(id string, b *persist.Bundle, source, snapKey string, prepNs int64) (*Entry, []string) {
	e, evicted := s.reg.Insert(id, b.Patterns, b.Options, b.Automaton, source, snapKey, prepNs)
	if e.aut.Load() == nil {
		e.tree(s.cfg.Procs, s.metrics)
	}
	return e, evicted
}

// recordPut counts a snapshot write; a failed one is logged and reported
// false, and the entry is served all the same.
func (s *Server) recordPut(n int, err error) bool {
	if err != nil {
		s.cfg.Log.Printf("snapshot write failed: %v", err)
		return false
	}
	s.metrics.recordSave(n)
	return true
}

// warmStart sweeps the cache directory and loads its first
// resident-capacity-many snapshots into the registry. The sweep re-validates
// every file up front, so boot reports the store's health in one line (and
// /readyz can repeat it) instead of discovering rot lazily, one failed Get
// at a time; and it hands over the bytes it has just checked, so each
// loaded bundle is read once. A file whose DENSE section does not restore
// is quarantined by the sweep like any other that fails its checks.
func (s *Server) warmStart() {
	loaded, full := 0, false
	rep, err := s.store.Sweep(func(k persist.Key, data []byte) error {
		if loaded == s.cfg.MaxDicts {
			if !full {
				s.cfg.Log.Printf("cache holds more snapshots than -max-dicts=%d; remaining entries stay on disk", s.cfg.MaxDicts)
				full = true
			}
			return nil
		}
		start := time.Now()
		b, err := persist.OpenBundle(data)
		if err != nil {
			s.cfg.Log.Printf("cache entry %s rejected: %v", k, err)
			return err
		}
		// In cluster mode the snapshot key IS the dictionary's cluster-wide
		// ID: register under it so a restarted node serves its owned
		// dictionaries at the same address the ring placed them.
		id := ""
		if s.cluster != nil {
			id = k.String()
		}
		lb := s.loadBundle(id, k, b, len(data), "cache", start)
		form := ""
		if lb.dense {
			form = ", dense"
		}
		s.cfg.Log.Printf("warm start: %s from snapshot %s (%d bytes%s)", lb.entry.ID, k, lb.bytes, form)
		loaded++
		return nil
	})
	if err != nil {
		s.cfg.Log.Printf("cache sweep failed: %v", err)
		return
	}
	s.sweep = rep
	if rep.Quarantined > 0 || rep.QuarantineFails > 0 || rep.PreQuarantined > 0 {
		s.cfg.Log.Printf("cache sweep: %d valid, %d quarantined now, %d quarantine failures, %d previously quarantined",
			rep.Valid, rep.Quarantined, rep.QuarantineFails, rep.PreQuarantined)
	}
}

// Handler returns the fully assembled HTTP handler (exported so tests and
// the bench harness can drive the service without a socket).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry returns the dictionary registry (exported for tests/bench).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the server metrics (exported for tests/bench).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Limiter returns the admission limiter (exported for tests/bench).
func (s *Server) Limiter() *Limiter { return s.limiter }

// Store returns the snapshot store, or nil when persistence is off
// (exported for tests/bench).
func (s *Server) Store() *persist.Store { return s.store }

func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	// handle wraps each route with the middleware stack, labelling metrics
	// with the registration pattern (self-describing; no reliance on the
	// router echoing the matched pattern back).
	api := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, true, true, h))
	}
	// Streaming routes keep the limiter (a stream is an in-flight request)
	// but not the per-request deadline: a legitimate stream runs as long as
	// the client keeps sending, and aborts via the connection context.
	str := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, true, false, h))
	}
	obs := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, false, false, h))
	}

	api("POST /v1/dicts", s.handleDictCreate)
	api("GET /v1/dicts", s.handleDictList)
	api("POST /v1/dicts/restore", s.handleDictRestore)
	api("GET /v1/dicts/{id}", s.clusterDict(false, s.handleDictGet))
	api("DELETE /v1/dicts/{id}", s.handleDictDelete)
	api("POST /v1/dicts/{id}/snapshot", s.handleDictSnapshot)
	// The raw bundle download is deliberately NOT cluster-routed: it answers
	// only for what this node actually holds, so replication pulls cannot
	// cascade (a peer that lacks the dictionary says 404, and the puller
	// tries the next candidate).
	api("GET /v1/dicts/{id}/snapshot", s.handleDictSnapshotGet)
	api("POST /v1/dicts/{id}/match", s.clusterDict(false, s.handleMatch))
	api("POST /v1/dicts/{id}/parse", s.clusterDict(false, s.handleParse))
	api("POST /v1/dicts/{id}/expand", s.clusterDict(false, s.handleExpand))
	api("POST /v1/compress", s.handleCompress)
	api("POST /v1/decompress", s.handleDecompress)
	api("POST /v1/dicts/{id}/match/compressed/buffered", s.clusterDict(false, s.handleMatchCompressedBuffered))
	str("POST /v1/dicts/{id}/match/stream", s.clusterDict(true, s.handleMatchStream))
	str("POST /v1/dicts/{id}/match/compressed", s.clusterDict(true, s.handleMatchCompressed))
	str("POST /v1/decompress/stream", s.handleDecompressStream)
	// Observability must answer even under saturation: no limiter.
	obs("GET /metrics", s.handleMetrics)
	obs("GET /healthz", s.handleHealthz)
	obs("GET /readyz", s.handleReadyz)
	obs("GET /v1/cluster", s.handleCluster)
	if s.cfg.RPCFaultAdmin {
		// Fault administration shares the observability tier: it must
		// answer mid-partition, which is exactly when the limiter sheds.
		obs("POST /v1/rpcfaults", s.handleRPCFaultsSet)
		obs("GET /v1/rpcfaults", s.handleRPCFaultsGet)
	}
	return mux
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// Flusher — the streaming endpoints flush per segment.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// instrument is the per-route middleware stack: panic containment, load
// shedding (limited routes only), an optional per-request deadline (timed;
// streaming routes opt out), and latency/status accounting under the
// route's pattern label.
func (s *Server) instrument(pattern string, limited, timed bool, h http.HandlerFunc) http.Handler {
	rm := s.metrics.route(pattern)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					// Deliberate connection abort (e.g. a stream proxy whose
					// upstream died mid-body): the broken transfer IS the
					// error signal. Re-panic so net/http kills the
					// connection instead of ending the response cleanly.
					rm.observe(time.Since(start), sr.status)
					panic(p)
				}
				s.metrics.panics.Add(1)
				s.cfg.Log.Printf("panic in %s: %v", pattern, p)
				if sr.status == http.StatusOK {
					// Nothing written yet; tell the client something.
					writeError(sr, http.StatusInternalServerError, "internal error")
				}
			}
			rm.observe(time.Since(start), sr.status)
		}()
		if limited {
			if !s.limiter.TryAcquire() {
				s.metrics.rejected.Add(1)
				sr.Header().Set("Retry-After", "1")
				writeError(sr, http.StatusTooManyRequests, "server saturated (%d in flight)", s.limiter.Capacity())
				return
			}
			defer s.limiter.Release()
			// Per-tenant quota, under the global semaphore: a tenant that
			// exhausts its slice sheds without touching anyone else's.
			if s.quota != nil {
				if tenant := r.Header.Get("X-Tenant"); tenant != "" {
					if !s.quota.Acquire(tenant) {
						sr.Header().Set("Retry-After", "1")
						writeError(sr, http.StatusTooManyRequests, "tenant %q quota exceeded (%d concurrent)", tenant, s.quota.PerTenant())
						return
					}
					defer s.quota.Release(tenant)
				}
			}
		}
		if timed {
			to := s.cfg.RequestTimeout
			// Deadline propagation: a proxied request carries the sender's
			// remaining budget. Adopt it when tighter than our own timeout,
			// and shed outright when it is below the hop floor — the
			// upstream would discard our answer anyway, so the honest move
			// is an immediate 503 the hedger can act on.
			if ms, ok := deadlineHeaderMs(r); ok {
				rem := time.Duration(ms) * time.Millisecond
				if s.cfg.HopFloor > 0 && rem < s.cfg.HopFloor {
					s.metrics.deadlineSheds.Add(1)
					sr.Header().Set("Retry-After", "1")
					writeError(sr, http.StatusServiceUnavailable, "deadline budget %dms below hop floor %s", ms, s.cfg.HopFloor)
					return
				}
				if rem < to {
					to = rem
				}
			}
			ctx, cancel := context.WithTimeout(r.Context(), to)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(sr, r)
	})
}

// deadlineHeaderMs parses the propagated-deadline header; ok is false when
// the header is absent or malformed (malformed budgets are ignored rather
// than shed — an honest client bug should not look like a partition).
func deadlineHeaderMs(r *http.Request) (int64, bool) {
	v := r.Header.Get(resilience.DeadlineHeader)
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return 0, false
	}
	return ms, true
}

// Close stops the cluster health prober. Safe on a non-cluster server and
// safe to call more than once.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.health.Close()
	}
}

// Run listens on cfg.Addr and serves until ctx is cancelled, then drains
// gracefully for up to cfg.ShutdownGrace. It returns nil on a clean
// shutdown.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.RunListener(ctx, ln)
}

// RunListener is Run on a caller-provided listener (tests use a loopback
// listener on port 0).
func (s *Server) RunListener(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          s.cfg.Log,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	s.cfg.Log.Printf("listening on %s (procs=%d max-dicts=%d max-inflight=%d)",
		ln.Addr(), s.cfg.Procs, s.cfg.MaxDicts, s.cfg.MaxInflight)
	select {
	case err := <-serveErr:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	s.cfg.Log.Printf("shutting down, draining for up to %s", s.cfg.ShutdownGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

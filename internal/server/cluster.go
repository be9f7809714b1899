package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/persist"
	"repro/internal/resilience"
)

// Pull retry policy: a few budget-gated attempts with jittered backoff.
const (
	pullAttempts    = 3
	pullBackoffBase = 25 * time.Millisecond
	pullBackoffMax  = 500 * time.Millisecond
)

// Cluster mode (DESIGN.md §15): several matchd processes share one static
// peer table, dictionary IDs are content addresses (persist.KeyFor hex)
// placed on R owners by the internal/cluster consistent-hash ring, and any
// node accepts any request — a non-owner routes match/parse traffic to the
// owners with hedging, an owner that is missing the dictionary pulls the
// DMSNAP bundle from a peer and restores its automaton (zero
// re-preprocessing: under -dense on the PRAM preprocess ledger does not
// move on a replication pull).

// clusterFromHeader marks a request as already routed once. A node seeing
// it serves locally no matter what, so a stale ring view (or a bug) can
// bounce a request at most once instead of looping.
const clusterFromHeader = "X-Cluster-From"

// clusterState is the per-server cluster runtime.
type clusterState struct {
	membership *cluster.Membership
	health     *cluster.Health
	hedger     *cluster.Hedger
	pool       *resilience.Pool // shared outbound transport: breakers, budget, faults
	client     *http.Client     // proxy/replication client over pool; no global timeout (ctx-bound)

	// Replication-pull singleflight: one fetch per missing id no matter how
	// many requests arrive for it at once.
	pullMu sync.Mutex
	pulls  map[string]*replicaPull
}

type replicaPull struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// pinnedEntryKey is the request-context key under which clusterDict hands
// the entry it found resident, or pulled, to the handler (see entryFor).
type pinnedEntryKey struct{}

// probeClientTimeout bounds one health probe; it doubles as the ceiling a
// black-holed probe waits before counting as a breaker failure.
const probeClientTimeout = 2 * time.Second

// newClusterState wires membership, the resilience pool every outbound
// byte flows through, the /readyz prober (probing through the pool, so
// probe outcomes feed the breakers), and the hedged proxy client, and
// starts probing.
func newClusterState(cfg *Config, mt *Metrics) (*clusterState, error) {
	m, err := cluster.NewMembership(cfg.ClusterPeers, cfg.ClusterSelf, 0, cfg.ClusterReplicas)
	if err != nil {
		return nil, err
	}
	others := m.Others()
	rpeers := make([]resilience.Peer, len(others))
	for i, p := range others {
		rpeers[i] = resilience.Peer{Name: p.Name, URL: p.URL}
	}
	pool := resilience.NewPool(resilience.Config{
		BreakerFailures: cfg.BreakerFailures,
		BreakerCooldown: cfg.BreakerCooldown,
		RetryBudgetPct:  cfg.RetryBudgetPct,
		HopFloor:        cfg.HopFloor,
	}, rpeers)
	c := &clusterState{
		membership: m,
		health:     cluster.NewHealth(others, &http.Client{Transport: pool, Timeout: probeClientTimeout}, cfg.ClusterProbeInterval),
		pool:       pool,
		client:     pool.Client(),
		pulls:      make(map[string]*replicaPull),
	}
	c.hedger = &cluster.Hedger{
		Client: c.client,
		After:  cfg.ClusterHedgeAfter,
		OnError: func(p cluster.Peer, err error) {
			// Breaker fast-fails and hop-floor sheds are this node's own
			// refusals — no evidence about the peer, so no MarkDown.
			if !resilience.IsLocal(err) {
				c.health.MarkDown(p.Name)
			}
		},
		OnSlow: func(p cluster.Peer) {
			c.pool.RecordSlow(p.Name)
		},
	}
	c.health.Start()
	return c, nil
}

// Cluster reports whether the server runs in cluster mode (exported for
// tests/bench).
func (s *Server) Cluster() bool { return s.cluster != nil }

// keyFromID recovers the persist.Key a cluster dictionary ID encodes.
func keyFromID(id string) (persist.Key, bool) {
	raw, err := hex.DecodeString(id)
	if err != nil || len(raw) != len(persist.Key{}) {
		return persist.Key{}, false
	}
	var k persist.Key
	copy(k[:], raw)
	return k, true
}

// clusterDict is the routing middleware for dictionary-scoped routes. An
// owner (or a node answering an already-routed request) serves locally,
// pulling the dictionary from a peer first if it is not resident; a
// non-owner proxies to the owners with hedging. streaming routes proxy to a
// single owner — their bodies are unbounded and cannot be replayed for a
// hedge.
func (s *Server) clusterDict(streaming bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := s.cluster
		if c == nil {
			h(w, r)
			return
		}
		id := r.PathValue("id")
		if r.Header.Get(clusterFromHeader) != "" || c.membership.OwnsSelf(id) {
			e, ok := s.reg.peek(id)
			if !ok {
				var err error
				if e, err = s.ensureReplica(r.Context(), id); err != nil {
					// The handler's own lookup produces the 404; just record
					// why the pull could not fill the gap.
					s.cfg.Log.Printf("cluster: replication pull of %s failed: %v", id, err)
				}
			}
			if e != nil {
				// Pin the entry on the request: when the working set
				// overflows the registry, concurrent pulls can evict it
				// before the handler's lookup runs.
				r = r.WithContext(context.WithValue(r.Context(), pinnedEntryKey{}, e))
			}
			h(w, r)
			return
		}
		s.routeAway(w, r, id, streaming, h)
	}
}

// healthyOwners returns the owner peers for id, primary first, with peers
// the prober considers degraded or down — or whose circuit breaker is
// open — filtered out. If the filter empties the list the unfiltered
// owners are returned — trying a suspect peer beats refusing the request
// outright (and the breaker will fast-fail the truly hopeless attempts).
func (c *clusterState) healthyOwners(id string) []cluster.Peer {
	owners := c.membership.Owners(id)
	kept := make([]cluster.Peer, 0, len(owners))
	for _, p := range owners {
		if p.Name == c.membership.Self {
			continue
		}
		switch c.health.State(p.Name) {
		case cluster.StateDegraded, cluster.StateDown:
			continue
		}
		if c.pool.PeerOpen(p.Name) {
			continue
		}
		kept = append(kept, p)
	}
	if len(kept) > 0 {
		return kept
	}
	// Everyone looks sick: fall back to the full owner list (minus self).
	kept = kept[:0]
	for _, p := range owners {
		if p.Name != c.membership.Self {
			kept = append(kept, p)
		}
	}
	return kept
}

// routeAway sends a request this node does not own to the owners. h is the
// local handler, kept at hand for the stale-serving fallback: when no
// owner is reachable but the dictionary is locally restorable, answering
// from the replica beats a 502.
func (s *Server) routeAway(w http.ResponseWriter, r *http.Request, id string, streaming bool, h http.HandlerFunc) {
	c := s.cluster
	owners := c.healthyOwners(id)
	if len(owners) == 0 {
		if s.tryServeStale(w, r, id, nil, h) {
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no reachable owner for dictionary %q", id)
		return
	}
	if streaming {
		s.proxyStream(w, r, id, owners, h)
		return
	}
	s.proxyHedged(w, r, id, owners, h)
}

// proxyHeader clones the forwardable request headers and stamps the loop
// guard. The deadline header is dropped: the pool transport re-stamps it
// from the live proxy context at send time, which is how the time this hop
// already spent gets subtracted from the budget.
func (c *clusterState) proxyHeader(h http.Header) http.Header {
	out := h.Clone()
	out.Del("Connection")
	out.Del("Content-Length") // recomputed per attempt
	out.Del(resilience.DeadlineHeader)
	out.Set(clusterFromHeader, c.membership.Self)
	return out
}

// proxyHedged forwards a buffered request to the owner list under the
// hedger: first owner immediately, the next after the latency budget, first
// acceptable answer wins and the losers are cancelled. When every owner is
// unreachable the stale-serving fallback gets a chance before the 502.
func (s *Server) proxyHedged(w http.ResponseWriter, r *http.Request, id string, owners []cluster.Peer, h http.HandlerFunc) {
	c := s.cluster
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	hdr := c.proxyHeader(r.Header)
	res, err := c.hedger.Do(r.Context(), owners, func(ctx context.Context, p cluster.Peer) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, r.Method, p.URL+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header = hdr.Clone()
		return req, nil
	})
	if err != nil {
		if r.Context().Err() != nil {
			writeCtxError(w, r.Context().Err())
			return
		}
		if s.tryServeStale(w, r, id, io.NopCloser(bytes.NewReader(body)), h) {
			return
		}
		writeError(w, http.StatusBadGateway, "all owners of %q unreachable: %v", id, err)
		return
	}
	defer res.Release()
	s.metrics.clusterProxied.Add(1)
	if res.Hedged {
		s.metrics.clusterHedged.Add(1)
		if res.Index > 0 {
			s.metrics.clusterHedgeWon.Add(1)
		}
	}
	copyProxyResponse(w, res.Resp)
}

// streamReplayLimit bounds how much of a streaming request body is
// buffered for owner failover. A dial-time failure consumes nothing, so
// in practice failover only needs the bytes the transport buffered before
// the connection died; beyond the limit the stream is committed to its
// owner and fails loudly like before.
const streamReplayLimit = 1 << 20

// proxyStream forwards a streaming request to an owner, relaying the
// response incrementally (flush per chunk, like the local streaming
// handlers). Bodies are unbounded, so hedging is off; instead the request
// body is teed into a bounded replay buffer and a send that dies before
// any response byte reaches the client fails over to the next owner —
// during a partition the first owner often refuses instantly, and the
// stream must survive that.
func (s *Server) proxyStream(w http.ResponseWriter, r *http.Request, id string, owners []cluster.Peer, h http.HandlerFunc) {
	c := s.cluster
	rb := newReplayBody(r.Body, streamReplayLimit)
	var lastOwner cluster.Peer
	var lastErr error
	for i, owner := range owners {
		if i > 0 {
			if !rb.rewind() {
				break // upstream consumed past the buffer: cannot replay
			}
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, owner.URL+r.URL.RequestURI(), io.NopCloser(rb))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "proxy: %v", err)
			return
		}
		req.Header = c.proxyHeader(r.Header)
		resp, err := c.client.Do(req)
		if err != nil {
			lastOwner, lastErr = owner, err
			if !resilience.IsLocal(err) {
				c.health.MarkDown(owner.Name)
			}
			if r.Context().Err() != nil {
				writeCtxError(w, r.Context().Err())
				return
			}
			continue
		}
		defer resp.Body.Close()
		s.metrics.clusterProxied.Add(1)
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		rc := http.NewResponseController(w)
		buf := make([]byte, 32<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				_ = rc.Flush()
			}
			if rerr == io.EOF {
				return
			}
			if rerr != nil {
				// The owner died mid-stream. The status line is long gone, so
				// the only honest signal left is a broken transfer: abort the
				// connection rather than let the truncated prefix read as a
				// complete stream. (The NDJSON contract is trailer-or-error;
				// a clean EOF here would forge a silent truncation.)
				c.health.MarkDown(owner.Name)
				panic(http.ErrAbortHandler)
			}
		}
	}
	// Every owner failed before a single response byte was sent.
	if rb.rewind() && s.tryServeStale(w, r, id, io.NopCloser(rb), h) {
		return
	}
	writeError(w, http.StatusBadGateway, "owner %s unreachable: %v", lastOwner.Name, lastErr)
}

// replayBody tees a request body into a bounded buffer so a failed proxy
// attempt can be replayed against another owner. Once more than limit
// bytes have been consumed the buffer is abandoned and rewind reports
// false.
type replayBody struct {
	mu       sync.Mutex // a failed attempt's transport may still read asynchronously
	src      io.Reader
	buf      []byte
	limit    int
	pos      int // next unread offset in buf during replay
	overflow bool
}

func newReplayBody(src io.Reader, limit int) *replayBody {
	return &replayBody{src: src, limit: limit}
}

func (b *replayBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pos < len(b.buf) {
		n := copy(p, b.buf[b.pos:])
		b.pos += n
		return n, nil
	}
	n, err := b.src.Read(p)
	if n > 0 {
		if !b.overflow && len(b.buf)+n <= b.limit {
			b.buf = append(b.buf, p[:n]...)
			b.pos = len(b.buf)
		} else {
			b.overflow = true
		}
	}
	return n, err
}

// rewind resets the body to its beginning for another attempt; it reports
// false when bytes beyond the buffer were already consumed.
func (b *replayBody) rewind() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.overflow {
		return false
	}
	b.pos = 0
	return true
}

// copyProxyResponse relays a buffered upstream response to the client.
func copyProxyResponse(w http.ResponseWriter, resp *http.Response) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// tryServeStale is the graceful-degradation fallback: every owner of id is
// unreachable, but if this node holds a replica (or can restore one from
// its local DMSNAP cache) the data is as good as the owner's — dictionary
// ids are content addresses, so "stale" means served without owner
// confirmation, not divergent bytes. The response is marked with
// X-Served-Stale so clients and dashboards can see degradation happening.
// body, when non-nil, replaces the (already consumed) request body before
// the local handler runs. Returns false when nothing local can answer.
func (s *Server) tryServeStale(w http.ResponseWriter, r *http.Request, id string, body io.ReadCloser, h http.HandlerFunc) bool {
	if s.cluster == nil || h == nil {
		return false
	}
	e, ok := s.reg.peek(id)
	if !ok {
		key, isKey := keyFromID(id)
		if !isKey || s.store == nil {
			return false
		}
		lb, err := s.loadFromStore(id, key, "cache")
		if err != nil {
			return false
		}
		e = lb.entry
	}
	// Pinned as clusterDict pins: another registration can evict the entry
	// before the handler's lookup runs.
	r = r.WithContext(context.WithValue(r.Context(), pinnedEntryKey{}, e))
	s.metrics.staleServes.Add(1)
	s.cfg.Log.Printf("cluster: serving %s stale — no reachable owner", id)
	w.Header().Set("X-Served-Stale", "true")
	if body != nil {
		r.Body = body
	}
	h(w, r)
	return true
}

// ensureReplica makes dictionary id resident, pulling its snapshot bundle
// from a peer (or the local store) if needed, and returns its entry — the
// caller's to keep even if the registry evicts it again. Concurrent callers
// for the same id share one pull.
func (s *Server) ensureReplica(ctx context.Context, id string) (*Entry, error) {
	c := s.cluster
	c.pullMu.Lock()
	if e, ok := s.reg.peek(id); ok {
		c.pullMu.Unlock()
		return e, nil
	}
	if p, ok := c.pulls[id]; ok {
		c.pullMu.Unlock()
		select {
		case <-p.done:
			return p.entry, p.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p := &replicaPull{done: make(chan struct{})}
	c.pulls[id] = p
	c.pullMu.Unlock()

	p.entry, p.err = s.pullReplica(ctx, id)
	close(p.done)
	c.pullMu.Lock()
	delete(c.pulls, id)
	c.pullMu.Unlock()
	return p.entry, p.err
}

// pullReplica restores id from the cheapest source that has it: the local
// snapshot store (a warm restart already paid the disk write), then each
// owner peer, then every remaining peer. Either way the bundle is opened
// once — no §3 section decoded — and no §3 preprocessing runs on a replica
// that has an automaton.
func (s *Server) pullReplica(ctx context.Context, id string) (*Entry, error) {
	c := s.cluster
	key, isKey := keyFromID(id)

	if isKey && s.store != nil {
		if lb, err := s.loadFromStore(id, key, "cache"); err == nil {
			return lb.entry, nil
		}
	}

	// Owners first (they are supposed to have it), then everyone else —
	// a node that just restarted empty may find the bundle only on a
	// non-owner that replicated it earlier. Down peers are skipped.
	candidates := c.membership.Owners(id)
	for _, p := range c.membership.Others() {
		dup := false
		for _, o := range candidates {
			if o.Name == p.Name {
				dup = true
				break
			}
		}
		if !dup {
			candidates = append(candidates, p)
		}
	}
	var lastErr error = persist.ErrNotFound
	seed := fnv.New64a()
	_, _ = seed.Write([]byte(id))
	for _, p := range candidates {
		if p.Name == c.membership.Self || c.health.State(p.Name) == cluster.StateDown || c.pool.PeerOpen(p.Name) {
			continue
		}
		// Pulls are idempotent GETs of immutable content — the one outbound
		// class worth retrying, gated by the cluster-wide budget so a
		// partition cannot turn pull pressure into a retry storm.
		var data []byte
		var b *persist.Bundle
		var err error
		start := time.Now()
		for attempt := 1; ; attempt++ {
			data, b, err = persist.FetchBundle(ctx, c.client, p.URL, id, 0)
			if err == nil || ctx.Err() != nil {
				break
			}
			if attempt >= pullAttempts || resilience.IsLocal(err) ||
				!persist.RetryableFetch(err) || !c.pool.RetryAllowed() {
				break
			}
			t := time.NewTimer(resilience.Backoff(attempt, pullBackoffBase, pullBackoffMax, seed.Sum64()))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		s.metrics.clusterReplPulls.Add(1)
		s.metrics.clusterReplBytes.Add(int64(len(data)))
		s.metrics.recordLoad(time.Since(start))
		var compiled bool
		b.Automaton, compiled = s.automatonFor(b.Patterns, b.Automaton)
		prepNs := time.Since(start).Nanoseconds()
		if isKey && s.store != nil {
			if compiled {
				data = b.Encode() // persisted once, with DENSE
			}
			s.recordPut(s.store.PutBytes(key, data))
		}
		e, _ := s.publish(id, b, "replica", id, prepNs)
		s.cfg.Log.Printf("cluster: pulled %s from %s (%d bytes)", id, p.Name, len(data))
		return e, nil
	}
	return nil, lastErr
}

// forwardCreate proxies a dictionary create to the owners of its content
// address. Creation is idempotent in cluster mode (the ID is the content
// address), so failover across owners is safe.
func (s *Server) forwardCreate(w http.ResponseWriter, r *http.Request, req *dictCreateRequest, id string) {
	c := s.cluster
	owners := c.healthyOwners(id)
	if len(owners) == 0 {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no reachable owner for dictionary %q", id)
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "proxy: %v", err)
		return
	}
	res, err := c.hedger.Do(r.Context(), owners, func(ctx context.Context, p cluster.Peer) (*http.Request, error) {
		preq, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL+"/v1/dicts", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		preq.Header.Set("Content-Type", "application/json")
		preq.Header.Set(clusterFromHeader, c.membership.Self)
		return preq, nil
	})
	if err != nil {
		if r.Context().Err() != nil {
			writeCtxError(w, r.Context().Err())
			return
		}
		writeError(w, http.StatusBadGateway, "all owners of %q unreachable: %v", id, err)
		return
	}
	defer res.Release()
	s.metrics.clusterProxied.Add(1)
	if res.Hedged {
		s.metrics.clusterHedged.Add(1)
		if res.Index > 0 {
			s.metrics.clusterHedgeWon.Add(1)
		}
	}
	copyProxyResponse(w, res.Resp)
}

// GET /v1/cluster -----------------------------------------------------------

// clusterDictPlacement is one resident dictionary's placement row.
type clusterDictPlacement struct {
	ID      string   `json:"id"`
	Owners  []string `json:"owners"` // primary first
	Primary bool     `json:"primary"`
}

// clusterInfoResponse is the GET /v1/cluster payload: the static peer
// table, live health, and where this node's resident dictionaries sit on
// the ring.
type clusterInfoResponse struct {
	Enabled      bool                   `json:"enabled"`
	Self         string                 `json:"self,omitempty"`
	Replicas     int                    `json:"replicas,omitempty"`
	VirtualNodes int                    `json:"virtualNodes,omitempty"`
	Peers        []cluster.Peer         `json:"peers,omitempty"`
	Health       []cluster.PeerStatus   `json:"health,omitempty"`
	Resident     []clusterDictPlacement `json:"resident,omitempty"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeJSON(w, http.StatusOK, clusterInfoResponse{Enabled: false})
		return
	}
	ring := c.membership.Ring()
	resp := clusterInfoResponse{
		Enabled:      true,
		Self:         c.membership.Self,
		Replicas:     ring.Replicas(),
		VirtualNodes: ring.VirtualNodes(),
		Peers:        c.membership.Peers(),
		Health:       c.health.Status(),
	}
	for _, info := range s.reg.Infos() {
		owners := ring.Owners(info.ID)
		resp.Resident = append(resp.Resident, clusterDictPlacement{
			ID:      info.ID,
			Owners:  owners,
			Primary: len(owners) > 0 && owners[0] == c.membership.Self,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// clusterMetrics assembles the cluster section of /metrics.
func (s *Server) clusterMetrics() clusterSnapshot {
	snap := clusterSnapshot{
		Proxied:          s.metrics.clusterProxied.Load(),
		Hedged:           s.metrics.clusterHedged.Load(),
		HedgeWon:         s.metrics.clusterHedgeWon.Load(),
		ReplicationPulls: s.metrics.clusterReplPulls.Load(),
		ReplicationBytes: s.metrics.clusterReplBytes.Load(),
	}
	c := s.cluster
	if c == nil {
		return snap
	}
	snap.Enabled = true
	snap.Self = c.membership.Self
	snap.Peers = len(c.membership.Peers())
	snap.Replicas = c.membership.Ring().Replicas()
	snap.PeerTransitions = c.health.Transitions()
	for _, info := range s.reg.Infos() {
		owners := c.membership.Ring().Owners(info.ID)
		if len(owners) > 0 && owners[0] == c.membership.Self {
			snap.OwnedDicts++
		} else {
			snap.ReplicatedDicts++
		}
	}
	return snap
}

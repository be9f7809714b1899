package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// postRawHdr is postRaw plus request headers: the RPC-resilience tests
// stamp X-Deadline-Ms and X-Cluster-From and assert on response headers.
func postRawHdr(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// splitByOwnership partitions nodes into the owners of id (primary first)
// and the rest (routers: nodes that must proxy requests for id).
func splitByOwnership(t *testing.T, nodes []*clusterNode, id string) (owners, routers []*clusterNode) {
	t.Helper()
	own := nodes[0].srv.cluster.membership.Owners(id)
	for _, op := range own {
		for _, nd := range nodes {
			if nd.name == op.Name {
				owners = append(owners, nd)
			}
		}
	}
	for _, nd := range nodes {
		isOwner := false
		for _, o := range owners {
			if o == nd {
				isOwner = true
			}
		}
		if !isOwner {
			routers = append(routers, nd)
		}
	}
	if len(owners) == 0 || len(routers) == 0 {
		t.Fatalf("placement of %s gave %d owners, %d routers; need both", id, len(owners), len(routers))
	}
	return owners, routers
}

// resilientClusterConfig is the mut used by the tests below: breakers on a
// short fuse plus a retry budget; no hop floor (the deadline test sets its
// own).
func resilientClusterConfig(i int, cfg *Config) {
	cfg.BreakerFailures = 3
	cfg.BreakerCooldown = 250 * time.Millisecond
	cfg.RetryBudgetPct = 10
}

// TestClusterStaleServeWhenAllOwnersDown: a non-owner holding the
// dictionary's bundle in its local cache must answer from the replica —
// marked X-Served-Stale — when every owner is unreachable, instead of
// failing the request with 502. Dictionary IDs are content addresses, so
// the stale answer is byte-correct; "stale" only means unconfirmed.
func TestClusterStaleServeWhenAllOwnersDown(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, resilientClusterConfig)
	_, _, patStrs := clusterFixture(t)
	created := createClusterDict(t, nodes[0].base, patStrs)

	// Warm every node so both owners hold the bundle before the failure.
	for _, nd := range nodes {
		if st, body := postJSON(t, nd.base+"/v1/dicts/"+created.ID+"/match", map[string]any{"text": "warm"}); st != http.StatusOK {
			t.Fatalf("warm via %s: %d %s", nd.name, st, body)
		}
	}
	owners, routers := splitByOwnership(t, nodes, created.ID)
	router := routers[0]

	// Seed the router's local cache with the bundle, as a prior replica
	// stint (or an operator restore) would have. PutBytes validates, so
	// the router can only ever serve exactly what the owner published.
	resp, err := http.Get(owners[0].base + "/v1/dicts/" + created.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle fetch: %d %v", resp.StatusCode, err)
	}
	key, ok := keyFromID(created.ID)
	if !ok {
		t.Fatalf("cluster ID %q is not a content address", created.ID)
	}
	if _, err := router.srv.store.PutBytes(key, data); err != nil {
		t.Fatal(err)
	}

	for _, o := range owners {
		if err := o.stop(); err != nil {
			t.Fatalf("owner shutdown: %v", err)
		}
	}

	// The first attempts may race the owners' shutdown; within a couple of
	// tries the router must degrade to the local replica rather than 502.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := postRawHdr(t, router.base+"/v1/dicts/"+created.ID+"/match",
			map[string]any{"text": "stale-serve-probe"}, nil)
		if resp.StatusCode == http.StatusOK {
			if got := resp.Header.Get("X-Served-Stale"); got != "true" {
				t.Fatalf("200 without X-Served-Stale (got %q) — owner answered after shutdown?", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never served stale: %d %s", resp.StatusCode, body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	var m MetricsSnapshot
	if st := getJSON(t, router.base+"/metrics", &m); st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	if m.Resilience.Rpc == nil {
		t.Fatal("cluster node /metrics has no resilience.rpc section")
	}
	if m.Resilience.Rpc.StaleServes == 0 {
		t.Fatal("stale serve happened but staleServes counter is 0")
	}
}

// TestStaleServeSurvivesEviction: tryServeStale hands the handler the entry
// it found or restored, pinned on the request, so a registration that evicts
// it between the restore and the handler's own lookup (-max-dicts 1) cannot
// turn a stale serve into a 404.
func TestStaleServeSurvivesEviction(t *testing.T) {
	nodes := startTestCluster(t, 1, 1, func(_ int, cfg *Config) { cfg.MaxDicts = 1 })
	srv := nodes[0].srv
	stale := createClusterDict(t, nodes[0].base, []string{"abra", "cad"})
	other := createClusterDict(t, nodes[0].base, []string{"xyz"}) // evicts stale; its bundle stays on disk
	if _, resident := srv.reg.peek(stale.ID); resident {
		t.Fatal("bad fixture: the second create did not evict the first dictionary")
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/dicts/"+stale.ID+"/match", strings.NewReader(`{"text":"abracadabra"}`))
	req.SetPathValue("id", stale.ID)
	rec := httptest.NewRecorder()
	served := srv.tryServeStale(rec, req, stale.ID, nil, func(w http.ResponseWriter, r *http.Request) {
		// The window: the restore has registered stale; evict it again.
		if st, body := postJSON(t, nodes[0].base+"/v1/dicts/"+other.ID+"/match", map[string]any{"text": "xyz"}); st != http.StatusOK {
			t.Errorf("evicting match: %d %s", st, body)
		}
		if _, resident := srv.reg.peek(stale.ID); resident {
			t.Error("bad fixture: the dictionary was not evicted inside the window")
		}
		srv.handleMatch(w, r)
	})
	if !served {
		t.Fatal("tryServeStale found nothing to restore")
	}
	var mr matchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil || rec.Code != http.StatusOK || mr.Matched != 3 {
		t.Fatalf("stale serve across an eviction: %d %s (%v), want 200 with 3 hits", rec.Code, rec.Body, err)
	}
	if rec.Header().Get("X-Served-Stale") != "true" {
		t.Fatal("stale serve not marked X-Served-Stale")
	}
}

// TestDeadlinePropagationShedsBelowHopFloor: a request arriving with an
// X-Deadline-Ms budget below the hop floor is shed immediately with 503 +
// Retry-After (doing the work would be doomed anyway); a generous budget
// and a malformed header both serve normally.
func TestDeadlinePropagationShedsBelowHopFloor(t *testing.T) {
	nodes := startTestCluster(t, 1, 1, func(i int, cfg *Config) {
		cfg.HopFloor = 50 * time.Millisecond
	})
	nd := nodes[0]
	_, _, patStrs := clusterFixture(t)
	created := createClusterDict(t, nd.base, patStrs)
	matchURL := nd.base + "/v1/dicts/" + created.ID + "/match"
	reqBody := map[string]any{"text": "deadline"}

	cases := []struct {
		name   string
		header string
		want   int
	}{
		{"below floor sheds", "1", http.StatusServiceUnavailable},
		{"ample budget serves", "30000", http.StatusOK},
		{"malformed header ignored", "soon-ish", http.StatusOK},
		{"no header serves", "", http.StatusOK},
	}
	sheds := 0
	for _, tc := range cases {
		hdr := map[string]string{}
		if tc.header != "" {
			hdr["X-Deadline-Ms"] = tc.header
		}
		resp, body := postRawHdr(t, matchURL, reqBody, hdr)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: got %d %s, want %d", tc.name, resp.StatusCode, body, tc.want)
		}
		if tc.want == http.StatusServiceUnavailable {
			sheds++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s: shed without Retry-After", tc.name)
			}
		}
	}

	var m MetricsSnapshot
	getJSON(t, nd.base+"/metrics", &m)
	if m.Resilience.Rpc == nil || m.Resilience.Rpc.DeadlineSheds != int64(sheds) {
		t.Fatalf("deadlineSheds: %+v, want %d", m.Resilience.Rpc, sheds)
	}
}

// TestClusterSingleBounceGuard: the X-Cluster-From loop guard must hold
// under concurrent hedged traffic. A routed request arriving at a
// non-owner is served locally — never forwarded a second hop — both while
// the owners are alive (the node pulls the bundle and answers itself) and
// after both owners die (a clean local 404 or gateway error, never a
// proxy loop).
func TestClusterSingleBounceGuard(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, resilientClusterConfig)
	_, _, patStrs := clusterFixture(t)
	created := createClusterDict(t, nodes[0].base, patStrs)
	owners, routers := splitByOwnership(t, nodes, created.ID)
	router := routers[0]

	// Warm the owners only: the router must start with no local copy.
	for _, o := range owners {
		if st, body := postJSON(t, o.base+"/v1/dicts/"+created.ID+"/match", map[string]any{"text": "warm"}); st != http.StatusOK {
			t.Fatalf("warm via %s: %d %s", o.name, st, body)
		}
	}

	proxied := func(nd *clusterNode) int64 {
		var m MetricsSnapshot
		getJSON(t, nd.base+"/metrics", &m)
		return m.Cluster.Proxied
	}

	const concurrency = 8
	burst := func(url string, hdr map[string]string, wantStatus func(int) bool, label string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, concurrency)
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := postRawHdr(t, url, map[string]any{"text": "bounce"}, hdr)
				if !wantStatus(resp.StatusCode) {
					errs <- fmt.Errorf("%s: got %d %s", label, resp.StatusCode, body)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	is200 := func(c int) bool { return c == http.StatusOK }
	matchURL := router.base + "/v1/dicts/" + created.ID + "/match"

	// Phase A, owners alive: guarded requests (header present, as if a
	// peer already routed them here) are served locally via a replication
	// pull — the router's proxied counter must not move. Unguarded
	// requests proxy normally.
	proxiedBefore := proxied(router)
	burst(matchURL, map[string]string{clusterFromHeader: owners[0].name}, is200, "guarded, owners alive")
	if got := proxied(router); got != proxiedBefore {
		t.Fatalf("guarded requests proxied a second hop: proxied %d -> %d", proxiedBefore, got)
	}
	burst(matchURL, nil, is200, "unguarded, owners alive")

	// Phase B: a second dictionary the router2 node has never held, then
	// both of its owners die. Guarded requests must answer a local 404
	// (the pull has nowhere to go, and forwarding would loop); unguarded
	// requests must fail clean with 502/503 — not hang, not bounce.
	pats2 := make([]string, len(patStrs))
	for i, p := range patStrs {
		pats2[i] = p + "!"
	}
	created2 := createClusterDict(t, nodes[0].base, pats2)
	owners2, routers2 := splitByOwnership(t, nodes, created2.ID)
	router2 := routers2[0]
	for _, o := range owners2 {
		if st, body := postJSON(t, o.base+"/v1/dicts/"+created2.ID+"/match", map[string]any{"text": "warm"}); st != http.StatusOK {
			t.Fatalf("warm via %s: %d %s", o.name, st, body)
		}
	}
	for _, o := range owners2 {
		if err := o.stop(); err != nil {
			t.Fatalf("owner shutdown: %v", err)
		}
	}
	match2URL := router2.base + "/v1/dicts/" + created2.ID + "/match"
	burst(match2URL, map[string]string{clusterFromHeader: owners2[0].name},
		func(c int) bool { return c == http.StatusNotFound }, "guarded, owners down")
	burst(match2URL, nil, func(c int) bool {
		return c == http.StatusBadGateway || c == http.StatusServiceUnavailable
	}, "unguarded, owners down")
}

// TestClusterHedgingDoesNotTripBreakers is the regression for the
// hedging/breaker interaction: hedged losers are canceled by the hedger
// itself, and those cancellations must count for nothing — every failure
// a peer accrues has to be an affirmative slow strike (silence at the
// hedge deadline), never the echo of our own cancel. Otherwise routine
// hedging would trip breakers against perfectly healthy peers.
func TestClusterHedgingDoesNotTripBreakers(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, func(i int, cfg *Config) {
		cfg.BreakerFailures = 50 // high fuse: this test audits counters, not trips
		cfg.RPCFaultAdmin = true
		cfg.ClusterHedgeAfter = 5 * time.Millisecond
	})
	_, _, patStrs := clusterFixture(t)
	created := createClusterDict(t, nodes[0].base, patStrs)
	owners, routers := splitByOwnership(t, nodes, created.ID)
	router := routers[0]
	for _, o := range owners {
		if st, body := postJSON(t, o.base+"/v1/dicts/"+created.ID+"/match", map[string]any{"text": "warm"}); st != http.StatusOK {
			t.Fatalf("warm via %s: %d %s", o.name, st, body)
		}
	}

	// Delay every proxied attempt against the primary owner far past the
	// hedge budget: each request hedges to the secondary, wins there, and
	// cancels the delayed loser mid-flight.
	primary := owners[0].name
	plan := fmt.Sprintf("rpc.delay.%s:p=1,delay=80ms", primary)
	if st, body := postJSON(t, router.base+"/v1/rpcfaults", map[string]any{"seed": 7, "plan": plan}); st != http.StatusOK {
		t.Fatalf("install fault plan: %d %s", st, body)
	}

	const requests = 10
	for i := 0; i < requests; i++ {
		if st, body := postJSON(t, router.base+"/v1/dicts/"+created.ID+"/match", map[string]any{"text": "hedge me"}); st != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, st, body)
		}
	}

	var m MetricsSnapshot
	if st := getJSON(t, router.base+"/metrics", &m); st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	rpc := m.Resilience.Rpc
	if rpc == nil {
		t.Fatal("no resilience.rpc metrics section")
	}
	if rpc.SlowStrikes < requests {
		t.Fatalf("slowStrikes = %d, want >= %d (primary was silent past the hedge budget every request)", rpc.SlowStrikes, requests)
	}
	// The load-bearing assertion: total peer failures equal total slow
	// strikes. Every canceled loser also died of context.Canceled — if
	// cancellation were (wrongly) charged as a peer failure, failures
	// would exceed strikes here.
	var failures int64
	for name, ps := range rpc.Peers {
		failures += ps.Failures
		if ps.Opens != 0 || ps.State != "closed" {
			t.Fatalf("peer %s breaker disturbed: %+v", name, ps)
		}
	}
	if failures != rpc.SlowStrikes {
		t.Fatalf("peer failures %d != slow strikes %d — hedge cancellations were charged as peer failures", failures, rpc.SlowStrikes)
	}
	if m.Cluster.Hedged == 0 {
		t.Fatal("no hedged requests recorded — the fault plan did not slow the primary")
	}
}

// TestClusterNodeShutdownStopsProber: a full server stop in cluster mode
// halts the background prober — its view of the world must never change
// again (the cluster package holds the 50-cycle goroutine-leak test; this
// guards the Server.Close wiring end of it).
func TestClusterNodeShutdownStopsProber(t *testing.T) {
	nodes := startTestCluster(t, 2, 2, nil)
	h := nodes[0].srv.cluster.health
	if err := nodes[1].stop(); err != nil {
		t.Fatalf("peer shutdown: %v", err)
	}
	if err := nodes[0].stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Node 0's prober is stopped; even with its peer now dead (which a
	// live prober would notice within the 50ms interval) the recorded
	// state must stay frozen across several intervals.
	transitions := h.Transitions()
	time.Sleep(200 * time.Millisecond)
	if got := h.Transitions(); got != transitions {
		t.Fatalf("prober still running after Server.Close: transitions %d -> %d", transitions, got)
	}
}

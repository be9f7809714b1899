package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/cluster"
	"repro/internal/textgen"
)

// clusterNode is one in-process cluster member. shutdown is idempotent so
// tests can kill a node mid-run without the cleanup hook hanging on it.
type clusterNode struct {
	name     string
	base     string
	srv      *Server
	shutdown func() error
	stopOnce sync.Once
	stopErr  error
}

func (nd *clusterNode) stop() error {
	nd.stopOnce.Do(func() { nd.stopErr = nd.shutdown() })
	return nd.stopErr
}

// startTestCluster boots n matchd servers on loopback ports sharing one
// static peer table. Listeners are bound before any server starts so the
// peer URLs are known up front. mut (optional) tweaks each node's config.
func startTestCluster(t *testing.T, n, replicas int, mut func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = cluster.Peer{Name: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String()}
	}
	// Registered before the nodes' cleanups, so it is removed after they
	// stopped — and a stopped node (Server.Close) writes nothing any more.
	root := t.TempDir()
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cfg := Config{
			Procs:       2,
			MaxDicts:    8,
			MaxInflight: 128,
			// Above net/http's 5 s: Shutdown treats a connection that has
			// not sent a request yet (a canceled hedge's dial) as busy
			// until it is that old, and a shorter grace made stopping a
			// node fail one run in eight.
			ShutdownGrace:        6 * time.Second,
			CacheDir:             filepath.Join(root, peers[i].Name),
			Log:                  quietLogger(),
			ClusterSelf:          peers[i].Name,
			ClusterPeers:         peers,
			ClusterReplicas:      replicas,
			ClusterProbeInterval: 50 * time.Millisecond,
			ClusterHedgeAfter:    40 * time.Millisecond,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		ln := lns[i]
		go func() { done <- srv.RunListener(ctx, ln) }()
		node := &clusterNode{name: peers[i].Name, base: peers[i].URL, srv: srv}
		node.shutdown = func() error {
			cancel()
			srv.Close()
			select {
			case err := <-done:
				return err
			case <-time.After(15 * time.Second):
				return fmt.Errorf("node did not shut down within 15s")
			}
		}
		nodes[i] = node
		t.Cleanup(func() { _ = node.stop() })
	}
	// Wait until every node answers /healthz so the first request of a test
	// never races server startup.
	for _, nd := range nodes {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if st := getJSON(t, nd.base+"/healthz", nil); st == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never became healthy", nd.name)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nodes
}

// clusterFixture builds a small planted dictionary and its oracle.
func clusterFixture(t *testing.T) (text []byte, patterns [][]byte, patStrs []string) {
	t.Helper()
	gen := textgen.New(99)
	text, patterns = gen.PlantedDictionary(1<<13, 16, 6, 60, 4)
	patStrs = make([]string, len(patterns))
	for i, p := range patterns {
		patStrs[i] = string(p)
	}
	return text, patterns, patStrs
}

func createClusterDict(t *testing.T, base string, patStrs []string) dictCreateResponse {
	t.Helper()
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": patStrs})
	if status != http.StatusCreated {
		t.Fatalf("create via %s: %d %s", base, status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created
}

// TestClusterContentAddressedCreate: the same patterns created through
// every node yield one ID (the content address), and the ID is a 64-hex
// persist key — placement needs nothing else.
func TestClusterContentAddressedCreate(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, nil)
	_, _, patStrs := clusterFixture(t)

	ids := map[string]bool{}
	for _, nd := range nodes {
		created := createClusterDict(t, nd.base, patStrs)
		ids[created.ID] = true
		if len(created.ID) != 64 {
			t.Fatalf("cluster dict ID %q is not a content address", created.ID)
		}
	}
	if len(ids) != 1 {
		t.Fatalf("create through 3 nodes produced %d distinct IDs: %v", len(ids), ids)
	}
}

// TestClusterMatchAnywhereAndReplicationPull: a dictionary created once is
// servable through every node — owners pull the DMSNAP bundle from a peer
// (zero re-preprocessing), non-owners proxy — and the match answers agree
// with the oracle everywhere.
func TestClusterMatchAnywhereAndReplicationPull(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, nil)
	text, patterns, patStrs := clusterFixture(t)
	created := createClusterDict(t, nodes[0].base, patStrs)

	ac := ahocorasick.New(patterns)
	oracle := ac.Match(text)
	wantHits := 0
	for _, p := range oracle {
		if p >= 0 {
			wantHits++
		}
	}

	for _, nd := range nodes {
		status, body := postJSON(t, nd.base+"/v1/dicts/"+created.ID+"/match", map[string]any{"text": string(text)})
		if status != http.StatusOK {
			t.Fatalf("match via %s: %d %s", nd.name, status, body)
		}
		var resp matchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Matched != wantHits {
			t.Fatalf("match via %s: %d hits, oracle says %d", nd.name, resp.Matched, wantHits)
		}
		for _, h := range resp.Hits {
			if p := oracle[h.Pos]; int(p) != h.Pattern || int(ac.PatternLen(p)) != h.Length {
				t.Fatalf("match via %s: hit at %d diverges from oracle", nd.name, h.Pos)
			}
		}
	}

	// Cluster-wide accounting: the bundle replicated at least once (the
	// non-creating owner pulled it), somebody proxied (the non-owner), and
	// §3 preprocessing ran at most once in total. Under the default -dense
	// on it runs on no node: the creator compiles the automaton, replicas
	// restore it, and nothing asks for the tree.
	var pulls, proxied, prepOps int64
	for _, nd := range nodes {
		var m MetricsSnapshot
		if st := getJSON(t, nd.base+"/metrics", &m); st != http.StatusOK {
			t.Fatalf("metrics via %s: %d", nd.name, st)
		}
		pulls += m.Cluster.ReplicationPulls
		proxied += m.Cluster.Proxied
		prepOps += m.PRAM["preprocess"].Ops
	}
	if pulls == 0 {
		t.Fatal("no replication pulls recorded anywhere — replicas re-preprocessed or never materialized")
	}
	if proxied == 0 {
		t.Fatal("no proxied requests recorded — every node claims ownership?")
	}
	if prepOps > 1 {
		t.Fatalf("preprocess ran %d times across the cluster, want at most 1 (replicas restore, never re-preprocess)", prepOps)
	}

	// The replica's entry must say so: some node holds the dictionary with
	// source "replica" or "cache", never a second "preprocess".
	prepCount := 0
	for _, nd := range nodes {
		if e, ok := nd.srv.Registry().Get(created.ID); ok && e.Source == "preprocess" {
			prepCount++
		}
	}
	if prepCount > 1 {
		t.Fatalf("%d nodes claim to have preprocessed the dictionary", prepCount)
	}
}

// TestClusterReplicaConsistency is the replica-fidelity property test: a
// dictionary restored from a peer-fetched bundle must produce byte-identical
// match, parse, and compressed-match responses on every node, and (dense
// mode on) walk the identical compiled automaton — same state ids at every
// text position as the origin's.
func TestClusterReplicaConsistency(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, func(i int, cfg *Config) {
		cfg.DenseMode = DenseOn // compile at create; bundle ships the DENSE section
	})
	text, _, patStrs := clusterFixture(t)
	created := createClusterDict(t, nodes[0].base, patStrs)

	// Compressed container for the compressed-domain matching leg.
	status, body := postJSON(t, nodes[0].base+"/v1/compress", map[string]any{"text": string(text)})
	if status != http.StatusOK {
		t.Fatalf("compress: %d %s", status, body)
	}
	var comp compressResponse
	if err := json.Unmarshal(body, &comp); err != nil {
		t.Fatal(err)
	}

	// The §5 parse endpoint needs the prefix property, which the planted
	// dictionary lacks — give it its own prefix-closed dictionary and a
	// text over the same alphabet (single letters are words, so every text
	// parses).
	gen := textgen.New(7)
	pcPats := gen.PrefixClosedDictionary(8, 12, 3)
	pcPats = append(pcPats, []byte("a"), []byte("b"), []byte("c"))
	pcStrs := make([]string, len(pcPats))
	for i, p := range pcPats {
		pcStrs[i] = string(p)
	}
	pcCreated := createClusterDict(t, nodes[0].base, pcStrs)
	parseText := gen.Uniform(512, 3)

	probes := []struct {
		name string
		id   string
		path string
		req  map[string]any
	}{
		{"match", created.ID, "/match", map[string]any{"text": string(text)}},
		{"parse", pcCreated.ID, "/parse", map[string]any{"text": string(parseText)}},
		{"czmatch", created.ID, "/match/compressed/buffered", map[string]any{"dataB64": comp.DataB64}},
	}
	for _, probe := range probes {
		var origin []byte
		for i, nd := range nodes {
			status, resp := postJSON(t, nd.base+"/v1/dicts/"+probe.id+probe.path, probe.req)
			if status != http.StatusOK {
				t.Fatalf("%s via %s: %d %s", probe.name, nd.name, status, resp)
			}
			if i == 0 {
				origin = resp
				continue
			}
			if string(resp) != string(origin) {
				t.Fatalf("%s via %s differs from origin:\n  origin:  %s\n  replica: %s", probe.name, nd.name, origin, resp)
			}
		}
	}

	// Dense state-id identity: every node that holds the dictionary walks
	// the same automaton — not just equivalent output, the same state at
	// every position.
	type walker struct {
		name string
		ids  []int32
	}
	var walks []walker
	sample := text[:1024]
	for _, nd := range nodes {
		e, ok := nd.srv.Registry().Get(created.ID)
		if !ok {
			continue
		}
		a := e.aut.Load()
		if a == nil {
			t.Fatalf("node %s holds %s without a dense automaton despite DenseOn", nd.name, created.ID)
		}
		ids := make([]int32, len(sample))
		q := int32(0)
		for i, b := range sample {
			q = a.Step(q, b)
			ids[i] = q
		}
		walks = append(walks, walker{nd.name, ids})
	}
	if len(walks) < 2 {
		t.Fatalf("only %d nodes hold the dictionary; want at least the replica pair", len(walks))
	}
	for _, wk := range walks[1:] {
		for i := range wk.ids {
			if wk.ids[i] != walks[0].ids[i] {
				t.Fatalf("dense state diverges at position %d: %s=%d, %s=%d",
					i, walks[0].name, walks[0].ids[i], wk.name, wk.ids[i])
			}
		}
	}
}

// TestClusterSurvivesOwnerDeath: with R=2 every dictionary has a second
// owner; killing the creating node mid-cluster must leave the dictionary
// servable through every survivor (the replica serves, the non-owner
// routes to it, hedging and health probes absorb the corpse).
func TestClusterSurvivesOwnerDeath(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, nil)
	text, _, patStrs := clusterFixture(t)
	created := createClusterDict(t, nodes[0].base, patStrs)

	// Warm every node once so the replica owner has pulled the bundle
	// before the kill (pull-based replication is lazy by design).
	for _, nd := range nodes {
		if status, body := postJSON(t, nd.base+"/v1/dicts/"+created.ID+"/match", map[string]any{"text": "warm"}); status != http.StatusOK {
			t.Fatalf("warm via %s: %d %s", nd.name, status, body)
		}
	}

	// Kill the node that served the create (an owner, possibly primary).
	victim := nodes[0]
	if err := victim.stop(); err != nil {
		t.Fatalf("victim shutdown: %v", err)
	}

	// Survivors must keep answering. The first request may land inside the
	// probe window and lean on hedging/failover; allow a couple of retries.
	for _, nd := range nodes[1:] {
		ok := false
		var lastStatus int
		var lastBody []byte
		for attempt := 0; attempt < 10 && !ok; attempt++ {
			status, body := postJSON(t, nd.base+"/v1/dicts/"+created.ID+"/match", map[string]any{"text": string(text[:256])})
			lastStatus, lastBody = status, body
			if status == http.StatusOK {
				ok = true
			} else {
				time.Sleep(100 * time.Millisecond)
			}
		}
		if !ok {
			t.Fatalf("match via survivor %s after owner death: %d %s", nd.name, lastStatus, lastBody)
		}
	}

	// The survivors noticed: peer transitions were recorded.
	var transitions int64
	for _, nd := range nodes[1:] {
		var m MetricsSnapshot
		getJSON(t, nd.base+"/metrics", &m)
		transitions += m.Cluster.PeerTransitions
	}
	if transitions == 0 {
		t.Fatal("no peer health transitions recorded after a node died")
	}
}

// TestClusterInfoEndpoint: GET /v1/cluster reports the peer table, health,
// and resident placement; non-cluster servers answer enabled=false.
func TestClusterInfoEndpoint(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, nil)
	_, _, patStrs := clusterFixture(t)
	created := createClusterDict(t, nodes[0].base, patStrs)

	// Let the probe loop run at least once.
	time.Sleep(150 * time.Millisecond)

	sawResident := false
	for _, nd := range nodes {
		var info clusterInfoResponse
		if st := getJSON(t, nd.base+"/v1/cluster", &info); st != http.StatusOK {
			t.Fatalf("cluster info via %s: %d", nd.name, st)
		}
		if !info.Enabled || info.Self != nd.name || len(info.Peers) != 3 || info.Replicas != 2 {
			t.Fatalf("cluster info via %s: %+v", nd.name, info)
		}
		for _, ps := range info.Health {
			if ps.State != "ready" {
				t.Fatalf("peer %s not ready in %s's view: %s", ps.Name, nd.name, ps.State)
			}
		}
		for _, res := range info.Resident {
			if res.ID == created.ID {
				sawResident = true
				if len(res.Owners) != 2 {
					t.Fatalf("placement of %s lists %d owners, want 2", res.ID, len(res.Owners))
				}
			}
		}
	}
	if !sawResident {
		t.Fatalf("no node reports %s resident", created.ID)
	}

	// A plain server answers the same route with enabled=false.
	srv, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 1})
	defer shutdown()
	_ = srv
	var info clusterInfoResponse
	if st := getJSON(t, base+"/v1/cluster", &info); st != http.StatusOK || info.Enabled {
		t.Fatalf("non-cluster /v1/cluster: %d %+v", st, info)
	}
}

// TestClusterDictListShowsDenseState: satellite check — GET /v1/dicts
// exposes per-entry dense/compiled serving state.
func TestClusterDictListShowsDenseState(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOn})
	defer shutdown()
	_ = srv
	_, _, patStrs := clusterFixture(t)
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": patStrs})
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	var list struct {
		Dicts []EntryInfo `json:"dicts"`
	}
	if st := getJSON(t, base+"/v1/dicts", &list); st != http.StatusOK || len(list.Dicts) != 1 {
		t.Fatalf("list: %d %+v", st, list)
	}
	info := list.Dicts[0]
	if !info.Dense || info.DenseStates <= 0 || info.DenseTableBytes <= 0 {
		t.Fatalf("EntryInfo misses dense state: %+v", info)
	}
	if info.Degraded || info.MaxPatLen <= 0 {
		t.Fatalf("EntryInfo serving state wrong: %+v", info)
	}
}

// TestTenantQuota: a tenant at its concurrency cap sheds with 429 while
// other tenants (and untagged requests) still clear admission.
func TestTenantQuota(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 1, QuotaPerTenant: 1})
	defer shutdown()

	// Occupy tenant A's only slot out-of-band, then watch its next request
	// bounce while tenant B and an untagged client sail through.
	if !srv.quota.Acquire("tenant-a") {
		t.Fatal("first acquire failed")
	}
	defer srv.quota.Release("tenant-a")

	do := func(tenant string) int {
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/compress", strings.NewReader(`{"text":"aaab"}`))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if st := do("tenant-a"); st != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant got %d, want 429", st)
	}
	if st := do("tenant-b"); st != http.StatusOK {
		t.Fatalf("other tenant got %d, want 200", st)
	}
	if st := do(""); st != http.StatusOK {
		t.Fatalf("untagged request got %d, want 200", st)
	}

	var m MetricsSnapshot
	getJSON(t, base+"/metrics", &m)
	if !m.Quota.Enabled || m.Quota.Rejected != 1 || m.Quota.PerTenant != 1 {
		t.Fatalf("quota metrics: %+v", m.Quota)
	}
}

// TestClusterOwnerServesThrashedRegistry: with more dictionaries on disk
// than registry slots and concurrent clients over all of them, an owner
// reloads the evicted ones from its own -cache-dir — and must serve the
// entry a reload produced even when other reloads evict it again before the
// handler's lookup runs. (It used to answer 404 "no dictionary" for a
// dictionary it held on disk; E21's K2 row hit that on every run.)
func TestClusterOwnerServesThrashedRegistry(t *testing.T) {
	nodes := startTestCluster(t, 1, 1, func(_ int, cfg *Config) {
		cfg.MaxDicts = 2
		cfg.DenseMode = DenseOff
	})
	base := nodes[0].base
	const dicts, clients, perClient = 6, 16, 24
	ids := make([]string, dicts)
	for i := range ids {
		_, pats := textgen.New(uint64(300+i)).PlantedDictionary(1<<10, 32, 6, 60, 4)
		patStrs := make([]string, len(pats))
		for j, p := range pats {
			patStrs[j] = string(p)
		}
		ids[i] = createClusterDict(t, base, patStrs).ID
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := ids[(c*5+i)%dicts]
				status, body := postJSON(t, base+"/v1/dicts/"+id+"/match", map[string]string{"text": "abracadabra"})
				if status != http.StatusOK {
					errs <- fmt.Errorf("match %s: %d %s", id[:8], status, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

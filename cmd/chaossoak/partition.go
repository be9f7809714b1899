package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/textgen"
)

// rpcPeerStat mirrors the per-peer breaker slice of /metrics
// resilience.rpc.peers.
type rpcPeerStat struct {
	State     string `json:"state"`
	Failures  int64  `json:"failures"`
	Opens     int64  `json:"opens"`
	HalfOpens int64  `json:"halfOpens"`
	Closes    int64  `json:"closes"`
}

// rpcStats is the resilience.rpc slice of /metrics the partition soak
// cares about.
type rpcStats struct {
	Peers          map[string]rpcPeerStat `json:"peers"`
	InjectedFaults int64                  `json:"injectedFaults"`
	StaleServes    int64                  `json:"staleServes"`
}

func fetchRPCStats(base string) (rpcStats, error) {
	var ms struct {
		Resilience struct {
			Rpc *rpcStats `json:"rpc"`
		} `json:"resilience"`
	}
	status, body, err := postGet(base + "/metrics")
	if err != nil || status != http.StatusOK {
		return rpcStats{}, fmt.Errorf("metrics: status %d err %v", status, err)
	}
	if err := json.Unmarshal(body, &ms); err != nil {
		return rpcStats{}, err
	}
	if ms.Resilience.Rpc == nil {
		return rpcStats{}, fmt.Errorf("metrics: no resilience.rpc section")
	}
	return *ms.Resilience.Rpc, nil
}

func setRPCFaults(base, plan string, seed uint64) error {
	status, body, err := postJSON(base+"/v1/rpcfaults", map[string]any{"seed": seed, "plan": plan})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	return nil
}

// runPartitionSoak is the -cluster N -partition mode: N matchd processes
// with breakers, retry budgets, and the fault-admin endpoint armed; the
// middle third of the soak asymmetrically partitions the dictionary's
// primary owner by injecting rpc.refuse faults into every OTHER node's
// outbound pool. The victim process stays healthy and reachable by
// clients the whole time — only its peers' view of it goes dark, which is
// exactly what a network partition looks like from inside.
func runPartitionSoak(bin string, n int, duration time.Duration, seed uint64, clients, textSize int, serverFlags string) {
	cacheRoot, err := os.MkdirTemp("", "chaossoak-partition-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheRoot)

	nodes := make([]*soakNode, n)
	var table []string
	for i := range nodes {
		addr := freeAddr()
		name := fmt.Sprintf("n%d", i+1)
		nodes[i] = &soakNode{name: name, addr: addr, base: "http://" + addr}
		table = append(table, name+"=http://"+addr)
	}
	peerTable := strings.Join(table, ",")
	for _, nd := range nodes {
		nd.args = []string{
			"-addr", nd.addr, "-procs", "2",
			"-cluster-self", nd.name, "-cluster-peers", peerTable,
			"-replicas", "2", "-hedge-after", "20ms",
			"-cache-dir", filepath.Join(cacheRoot, nd.name),
			// Resilience under test: short breaker fuse so the 1s-interval
			// probe failures open within the partition window, cooldown
			// under the probe interval so every post-cooldown probe can arm
			// a half-open trial.
			"-breaker-failures", "3", "-breaker-cooldown", "750ms",
			"-retry-budget", "10", "-hop-floor", "5ms",
			"-rpc-fault-admin",
		}
		nd.args = append(nd.args, strings.Fields(serverFlags)...)
	}

	fail := func(format string, args ...any) {
		for _, nd := range nodes {
			nd.mu.Lock()
			if nd.cmd != nil && nd.cmd.Process != nil {
				_ = nd.cmd.Process.Kill()
			}
			nd.mu.Unlock()
			if nd.cmd != nil {
				_ = nd.cmd.Wait()
			}
			log.Printf("--- %s log ---\n%s", nd.name, nd.log())
		}
		log.Fatalf(format, args...)
	}
	for _, nd := range nodes {
		if err := nd.start(bin); err != nil {
			fail("starting %s: %v", nd.name, err)
		}
		waitHealthy(nd.base, nd.cmd, fail)
	}

	// Workload: same as the cluster soak — planted dictionary, oracle, LZ
	// payloads, compressed container.
	gen := textgen.New(seed)
	text, patterns := gen.PlantedDictionary(textSize, 24, 8, 101, 4)
	ac := ahocorasick.New(patterns)
	oracle := ac.Match(text)
	wantHits := 0
	for _, p := range oracle {
		if p >= 0 {
			wantHits++
		}
	}
	if wantHits == 0 {
		fail("degenerate workload: planted text has no oracle matches")
	}
	patStrs := make([]string, len(patterns))
	for i, p := range patterns {
		patStrs[i] = string(p)
	}
	id := createDict(nodes[0].base, patStrs, fail)
	lzPayloads := make([][]byte, 16)
	for i := range lzPayloads {
		lzPayloads[i] = gen.Repetitive(2048+128*i, 64, 0.02)
	}
	cz := newCzTraffic(text, ac, fail)

	// Warm every node so the replica owner holds the bundle before the
	// partition bites.
	warm := base64.StdEncoding.EncodeToString(text[:256])
	for _, nd := range nodes {
		status, body, err := postJSON(nd.base+"/v1/dicts/"+id+"/match", map[string]any{"textB64": warm})
		if err != nil || status != http.StatusOK {
			fail("warming %s: status %d err %v: %s", nd.name, status, err, body)
		}
	}

	victim := nodes[pickVictim(nodes, id, fail)]
	var others []*soakNode
	for _, nd := range nodes {
		if nd != victim {
			others = append(others, nd)
		}
	}
	log.Printf("partition: %d nodes up, dictionary %s..., victim %s", n, id[:12], victim.name)

	var (
		ok, shed, retried atomic.Int64
		streamErrTrailer  atomic.Int64
		streamEngines     engineTally
		mismatches        atomic.Int64
	)
	firstMismatch := make(chan string, 1)
	mismatch := func(format string, args ...any) {
		mismatches.Add(1)
		select {
		case firstMismatch <- fmt.Sprintf(format, args...):
		default:
		}
	}

	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				base := nodes[(c+i)%n].base
				switch (c + i) % 4 {
				case 0:
					doMatch(base, id, text, oracle, ac, &ok, &shed, &retried, mismatch)
				case 1:
					doLZRoundTrip(base, lzPayloads[(c*31+i)%len(lzPayloads)], &ok, &shed, &retried, mismatch)
				case 2:
					doStream(base, id, text, oracle, ac, wantHits, &ok, &shed, &streamErrTrailer, &streamEngines, mismatch)
				case 3:
					cz.do(base, id, i/4, ac, &ok, &shed, mismatch)
				}
			}
		}(c)
	}

	// Partition schedule: [healthy 1/3][partitioned 1/3][healed 1/3].
	// The injected fault is one-sided by construction — only the
	// non-victims' pools refuse connections TO the victim; nothing is
	// installed on the victim itself.
	partitionAt := duration / 3
	healAt := 2 * duration / 3
	refusePlan := "rpc.refuse." + victim.name + ":p=1"
	type phaseMarks struct {
		okAtPartition, okAtHeal int64
		err                     error
	}
	marks := make(chan phaseMarks, 1)
	go func() {
		var pm phaseMarks
		time.Sleep(partitionAt)
		pm.okAtPartition = ok.Load()
		log.Printf("partition: isolating %s at t=%v (%s on %d peers)", victim.name, partitionAt.Round(time.Millisecond), refusePlan, len(others))
		for _, nd := range others {
			if err := setRPCFaults(nd.base, refusePlan, seed); err != nil {
				pm.err = fmt.Errorf("installing faults on %s: %v", nd.name, err)
				marks <- pm
				return
			}
		}
		time.Sleep(healAt - partitionAt)
		pm.okAtHeal = ok.Load()
		log.Printf("partition: healing at t=%v", healAt.Round(time.Millisecond))
		for _, nd := range others {
			if err := setRPCFaults(nd.base, "", seed); err != nil {
				pm.err = fmt.Errorf("clearing faults on %s: %v", nd.name, err)
				marks <- pm
				return
			}
		}
		marks <- pm
	}()
	wg.Wait()
	pm := <-marks
	if pm.err != nil {
		fail("partition schedule: %v", pm.err)
	}
	okDuringPartition := pm.okAtHeal - pm.okAtPartition

	// Breaker lifecycle: every non-victim's breaker for the victim must
	// have opened during the partition, admitted a half-open trial, and
	// re-closed after the heal (the 1s /readyz prober is the recovery
	// path, so allow it a few beats).
	var injectedTotal int64
	lifecycleDeadline := time.Now().Add(15 * time.Second)
	for _, nd := range others {
		for {
			st, err := fetchRPCStats(nd.base)
			if err != nil {
				fail("rpc stats via %s: %v", nd.name, err)
			}
			ps := st.Peers[victim.name]
			if ps.Opens >= 1 && ps.HalfOpens >= 1 && ps.Closes >= 1 && ps.State == "closed" {
				injectedTotal += st.InjectedFaults
				break
			}
			if time.Now().After(lifecycleDeadline) {
				fail("breaker on %s for %s never completed open→half-open→closed: %+v", nd.name, victim.name, ps)
			}
			time.Sleep(250 * time.Millisecond)
		}
	}
	if injectedTotal == 0 {
		fail("no injected faults recorded on any peer — the partition never bit")
	}

	// Asymmetry: the victim's own outbound pool was never faulted, so it
	// reached its peers throughout.
	vst, err := fetchRPCStats(victim.base)
	if err != nil {
		fail("rpc stats via %s: %v", victim.name, err)
	}
	if vst.InjectedFaults != 0 {
		fail("victim %s reports %d injected faults on its own outbound — partition was not one-sided", victim.name, vst.InjectedFaults)
	}

	// Post-heal verification: oracle-exact service through every node,
	// victim included.
	full := base64.StdEncoding.EncodeToString(text)
	for _, nd := range nodes {
		status, body, err := postJSON(nd.base+"/v1/dicts/"+id+"/match", map[string]any{"textB64": full})
		if err != nil || status != http.StatusOK {
			fail("post-heal match via %s: status %d err %v: %s", nd.name, status, err, body)
		}
		var mr struct {
			Matched int `json:"matched"`
		}
		if err := json.Unmarshal(body, &mr); err != nil || mr.Matched != wantHits {
			fail("post-heal match via %s: %d hits, oracle says %d (err %v)", nd.name, mr.Matched, wantHits, err)
		}
	}

	// Drain: every node must exit 0 on SIGTERM with a clean shutdown.
	for _, nd := range nodes {
		nd.mu.Lock()
		proc := nd.cmd.Process
		nd.mu.Unlock()
		if err := proc.Signal(syscall.SIGTERM); err != nil {
			fail("SIGTERM %s: %v", nd.name, err)
		}
	}
	for _, nd := range nodes {
		waited := make(chan error, 1)
		go func() { waited <- nd.cmd.Wait() }()
		select {
		case err := <-waited:
			if err != nil {
				fail("%s exited uncleanly after SIGTERM: %v", nd.name, err)
			}
		case <-time.After(30 * time.Second):
			fail("%s did not exit within 30s of SIGTERM", nd.name)
		}
		if !strings.Contains(nd.log(), "clean shutdown") {
			fail("%s exited 0 but never logged a clean shutdown", nd.name)
		}
	}

	log.Printf("%v partition soak (%d nodes, victim %s): %d ok (%d during partition, %d after retries), %d shed, %d streams error-trailed, %d mismatches, %d injected faults",
		duration, n, victim.name, ok.Load(), okDuringPartition, retried.Load(), shed.Load(), streamErrTrailer.Load(), mismatches.Load(), injectedTotal)
	log.Print(streamEngines.report())
	log.Print(cz.report())
	if mm := mismatches.Load(); mm > 0 {
		log.Fatalf("FAIL: %d oracle mismatches; first: %s", mm, <-firstMismatch)
	}
	if ok.Load() == 0 {
		log.Fatal("FAIL: no request ever succeeded — the soak measured nothing")
	}
	if err := cz.check(); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	if okDuringPartition == 0 {
		log.Fatal("FAIL: nothing succeeded while the primary owner was partitioned — rerouting/stale serving never worked")
	}
	log.Print("PASS")
}

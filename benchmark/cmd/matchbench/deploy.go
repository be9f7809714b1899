package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupTimeout bounds one deployment's way to servable (and one restart's).
const setupTimeout = 60 * time.Second

// control is the client for everything that is not measured load: readiness
// polls, registrations during set-up, placement lookups.
var control = &http.Client{Timeout: 30 * time.Second}

// callJSON sends one control-plane request and decodes a 2xx JSON reply
// into out (nil = discard).
func callJSON(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := control.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read reply: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, clip(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, url, err)
	}
	return nil
}

// dictInfo is the part of a dictionary listing the benchmark reads.
type dictInfo struct {
	ID     string `json:"id"`
	Source string `json:"source"`
	Dense  bool   `json:"dense"`
}

// register creates a dictionary through n and returns its id.
func register(n *node, patterns [][]byte) (string, error) {
	var created dictInfo
	if err := callJSON(http.MethodPost, n.base+"/v1/dicts", dictBody(patterns), &created); err != nil {
		return "", err
	}
	return created.ID, nil
}

// waitDense polls n until dictionary id reports a live dense automaton.
func waitDense(ctx context.Context, n *node, id string) error {
	return n.poll(ctx, "dense automaton for "+id, func() (bool, error) {
		var info dictInfo
		err := callJSON(http.MethodGet, n.base+"/v1/dicts/"+id, nil, &info)
		return err == nil && info.Dense, nil // 404 until a replica has pulled it
	})
}

// residents lists the dictionaries resident on n itself.
func residents(n *node) ([]dictInfo, error) {
	var list struct {
		Dicts []dictInfo `json:"dicts"`
	}
	err := callJSON(http.MethodGet, n.base+"/v1/dicts", nil, &list)
	return list.Dicts, err
}

// deployment is a running matchd (or cluster of them) with the workload's
// dictionaries servable.
type deployment struct {
	nodes   []*node
	entry   *node    // receives the workload's requests
	owner   *node    // holds dictionary 0: the node itself, or the cluster's primary owner
	ids     []string // workload dictionaries, in registration order
	tmp     string   // parent of every -cache-dir, removed on teardown ("" = not persistent)
	setupS  float64  // exec → servable
	startMs float64  // exec → /healthz of the first node
}

// url is the address of route under dictionary k on the entry node.
func (d *deployment) url(k int, route string) string {
	return d.entry.base + "/v1/dicts/" + d.ids[k] + route
}

// env is what every deployment of one run shares.
type env struct {
	ps       *procs
	bin      string
	outDir   string
	workload string
	serial   int // deployments so far, for unique directory and log names
}

// deploy starts size matchd processes with default flags — plus, for size 3,
// the cluster flags that make them know each other, and, when persistent,
// a -cache-dir each — registers dicts through the first and waits until each
// is dense wherever it lives. In a cluster the entry node is the one node
// that owns none of dicts[0], and the owner its primary.
func (e *env) deploy(size int, dicts [][][]byte, persistent bool) (d *deployment, err error) {
	e.serial++
	d = &deployment{}
	if persistent {
		if d.tmp, err = os.MkdirTemp(filepath.Join(e.outDir, "tmp"), e.workload+"-"); err != nil {
			return nil, err
		}
	}
	defer func() {
		if err != nil {
			d.abandon()
		}
	}()
	addrs := make([]string, size)
	peers := make([]string, size)
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return nil, err
		}
		peers[i] = fmt.Sprintf("n%d=http://%s", i+1, addrs[i])
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()

	begin := time.Now()
	for i, addr := range addrs {
		name := fmt.Sprintf("n%d", i+1)
		var args []string
		if persistent {
			args = append(args, "-cache-dir", filepath.Join(d.tmp, name))
		}
		if size > 1 {
			args = append(args, "-cluster-self", name, "-cluster-peers", strings.Join(peers, ","))
		}
		logPath := filepath.Join(e.outDir, "logs", fmt.Sprintf("%s-%d-%s.log", e.workload, e.serial, name))
		_ = os.Remove(logPath) // a log of an earlier run under the same name would be appended to
		n, err := e.ps.start(name, e.bin, addr, logPath, args...)
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	if err := d.nodes[0].waitHTTP(ctx, "/healthz"); err != nil {
		return nil, err
	}
	d.startMs = float64(time.Since(begin)) / float64(time.Millisecond)
	for _, n := range d.nodes {
		if err := n.waitHTTP(ctx, "/readyz"); err != nil {
			return nil, err
		}
	}
	if size > 1 {
		if err := d.waitPeersReady(ctx); err != nil {
			return nil, err
		}
	}
	d.entry, d.owner = d.nodes[0], d.nodes[0]
	for k, patterns := range dicts {
		id, err := register(d.nodes[0], patterns)
		if err != nil {
			return nil, fmt.Errorf("register dictionary %d: %w", k, err)
		}
		d.ids = append(d.ids, id)
		holders := []*node{d.nodes[0]}
		if size > 1 {
			if holders, err = d.owners(ctx, id); err != nil {
				return nil, err
			}
		}
		for _, n := range holders {
			if err := waitDense(ctx, n, id); err != nil {
				return nil, err
			}
		}
		if k == 0 && size > 1 {
			d.owner = holders[0]
			for _, n := range d.nodes {
				if n != holders[0] && n != holders[1] {
					d.entry = n
				}
			}
		}
	}
	d.setupS = time.Since(begin).Seconds()
	return d, nil
}

// waitPeersReady polls GET /v1/cluster on every node until each sees every
// peer ready. A node probes its peers when it starts and then once a
// second, so a node that started before a peer holds it for down until the
// next probe, and replication pulls skip peers held for down: registering
// earlier would make set-up time depend on where the ring places the
// dictionary.
func (d *deployment) waitPeersReady(ctx context.Context) error {
	for _, n := range d.nodes {
		err := n.poll(ctx, "sight of every peer ready", func() (bool, error) {
			var info struct {
				Health []struct {
					State string `json:"state"`
				} `json:"health"`
			}
			err := callJSON(http.MethodGet, n.base+"/v1/cluster", nil, &info)
			ready := err == nil && len(info.Health) == len(d.nodes)-1
			for _, h := range info.Health {
				ready = ready && h.State == "ready"
			}
			return ready, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// owners reads GET /v1/cluster (resident[].owners) until some node reports
// where id lives, and returns the owning nodes, primary first.
func (d *deployment) owners(ctx context.Context, id string) ([]*node, error) {
	var out []*node
	err := d.nodes[0].poll(ctx, "placement of "+id, func() (bool, error) {
		for _, n := range d.nodes {
			var info struct {
				Resident []struct {
					ID     string   `json:"id"`
					Owners []string `json:"owners"`
				} `json:"resident"`
			}
			if err := callJSON(http.MethodGet, n.base+"/v1/cluster", nil, &info); err != nil {
				continue
			}
			for _, r := range info.Resident {
				if r.ID != id {
					continue
				}
				for _, name := range r.Owners {
					for _, m := range d.nodes {
						if m.name == name {
							out = append(out, m)
						}
					}
				}
				if len(out) != 2 {
					return false, fmt.Errorf("owners %v, want 2 nodes of this cluster", r.Owners)
				}
				return true, nil
			}
		}
		return false, nil
	})
	return out, err
}

// restartCycle is one SIGTERM → clean exit → re-exec of every node of a
// persistent deployment on its own -cache-dir, all at once, timed until each
// answers /readyz and has as many dictionaries resident and dense again as
// it had before, none preprocessed.
func (d *deployment) restartCycle() (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	before := make([]int, len(d.nodes))
	for i, n := range d.nodes {
		list, err := residents(n)
		if err != nil {
			return 0, err
		}
		before[i] = len(list)
		for _, info := range list { // a dense upgrade still in flight would not be in the snapshot yet
			if err := waitDense(ctx, n, info.ID); err != nil {
				return 0, err
			}
		}
	}
	begin := time.Now()
	errs := make(chan error, len(d.nodes))
	for i, n := range d.nodes {
		go func(n *node, want int) {
			err := n.restart()
			if err == nil {
				err = n.waitHTTP(ctx, "/readyz")
			}
			if err == nil {
				err = n.waitWarm(ctx, want)
			}
			errs <- err
		}(n, before[i])
	}
	var first error
	for range d.nodes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return time.Since(begin).Seconds(), first
}

// waitWarm polls n until want dictionaries are resident and dense, all
// loaded rather than preprocessed.
func (n *node) waitWarm(ctx context.Context, want int) error {
	return n.poll(ctx, fmt.Sprintf("%d dictionaries dense after restart", want), func() (bool, error) {
		list, err := residents(n)
		dense := 0
		for _, info := range list {
			if info.Source == "preprocess" {
				return false, fmt.Errorf("%s was preprocessed on a warm start", info.ID)
			}
			if info.Dense {
				dense++
			}
		}
		return err == nil && dense >= want, nil
	})
}

// cpu sums server CPU time over every process of the deployment.
func (d *deployment) cpu() time.Duration {
	var t time.Duration
	for _, n := range d.nodes {
		t += n.cpu()
	}
	return t
}

// peakRSSMB is the largest peak resident set among the deployment's nodes.
func (d *deployment) peakRSSMB() float64 {
	var kb int64
	for _, n := range d.nodes {
		kb = max(kb, n.peakRSSKB())
	}
	return float64(kb) / 1024
}

// teardown stops every node cleanly, removes the cache directories and
// reports a node that died early, exited non-zero or logged a problem.
func (d *deployment) teardown() error {
	var first error
	for _, n := range d.nodes {
		var err error
		if n.exited() {
			err = fmt.Errorf("%s exited early: %v (log: %s)", n.name, n.waitErr, n.logPath)
		} else {
			err = n.terminate()
		}
		if err == nil {
			if line := n.logProblem(); line != "" {
				err = fmt.Errorf("%s logged %q (log: %s)", n.name, line, n.logPath)
			}
		}
		if first == nil {
			first = err
		}
	}
	if d.tmp != "" {
		if err := os.RemoveAll(d.tmp); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// abandon kills a deployment that failed half-way.
func (d *deployment) abandon() {
	for _, n := range d.nodes {
		n.kill()
		<-n.waited
	}
	if d.tmp != "" {
		_ = os.RemoveAll(d.tmp) // the failure that led here is the error to report
	}
}

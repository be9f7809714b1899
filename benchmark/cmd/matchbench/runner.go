package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"
)

const (
	// A run sets up repeatedly and reports the median, so one slow exec does
	// not decide the metric: until repeatBudget is spent or maxRepeats is
	// reached. Cheap set-ups (tens of ms), where one exec's jitter weighs
	// most, get the most repeats.
	maxRepeats   = 15
	repeatBudget = 2 * time.Second
	// rounds is how many times a run measures. Each round holds a part of
	// the window, a third of the registration probes and a third of the
	// restart cycles, so every metric samples moments several seconds apart
	// and one slow spell of the shared host cannot own a metric.
	rounds = 3
	// restartBudget is the time a round's restart cycles may take; the cycle
	// that crosses it is the round's last.
	restartBudget = 800 * time.Millisecond
	// warmup is the verified closed loop discarded before the first part.
	warmup = time.Second
	// settle is the pause before each registration probe: the dense compile
	// that follows a registration in the background must not run into the
	// next one.
	settle = 10 * time.Millisecond
)

// runUntraced is one end-to-end run of w. Two deployments hold the
// workload's dictionaries: one with default flags serves the load and the
// registration probes; a second, with a -cache-dir and ballast, exists only to
// be restarted and idles otherwise. Only that one persists: with a cache
// directory every registration ends in an fsync, whose 10–20 ms varied more
// from run to run than the preprocessing register_p25_ms is meant to show.
// After the repeated set-ups and a warm-up come the rounds.
func (e *env) runUntraced(w *workload, seed uint64, window time.Duration) (res *result, err error) {
	e.workload = w.name
	res = newResult(w.name, false, seed, window.Seconds())
	in, err := w.inputs(seed, corpusDirOf(e.outDir))
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	r := &run{seed: seed, res: res}
	var probes []freshDict
	if w.writes {
		r.fresh = freshDicts(seed, 1000, int(window.Seconds()*churnDictsPerSecond)+1)
	} else {
		probes = freshDicts(seed, 5000, registerProbes)
	}

	var serving, persistent *deployment
	defer func() { // whichever deployments are still running
		for _, d := range []*deployment{serving, persistent} {
			if d == nil {
				continue
			}
			if terr := d.teardown(); terr != nil && err == nil {
				res, err = nil, terr
			}
		}
	}()
	var setups, starts []float64
	for i, begin := 0, time.Now(); i == 0 || (i < maxRepeats && time.Since(begin) < repeatBudget); i++ {
		if serving != nil {
			d := serving
			serving = nil
			if err := d.teardown(); err != nil {
				return nil, err
			}
		}
		if serving, err = e.deploy(1, in.dicts, false); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, serving.setupS)
		starts = append(starts, serving.startMs)
	}
	res.set("setup_s", median(setups), "s")
	res.Samples["setup"] = len(setups)
	res.Series["setup_s"] = setups
	res.diag("matchd.start_ms", median(starts), "ms")

	held := append([][][]byte{}, in.dicts...)
	for k := 0; k < ballastDicts; k++ {
		held = append(held, genDict(subSeed(seed, 9000+uint64(k)), shapeL))
	}
	if persistent, err = e.deploy(1, held, true); err != nil {
		return nil, fmt.Errorf("persistent set-up: %w", err)
	}

	r.d, r.pool = serving, in.pool(serving)
	for i := 0; i < w.conns; i++ {
		c := newConn()
		defer c.close()
		r.conns = append(r.conns, c)
	}
	res.count(tallySamples(closedLoop(r.conns, warmup, r.next, true)))

	measure := w.measure
	if measure == nil {
		measure = measureClosed
	}
	var restarts []float64
	var selfCPU, measured time.Duration
	ticks0, stolen0 := hostCPU()
	for r.part = 0; r.part < rounds; r.part++ {
		cpu0, t0 := procCPU(os.Getpid()), time.Now()
		measure(r, window/rounds)
		selfCPU += procCPU(os.Getpid()) - cpu0
		measured += time.Since(t0)

		lo, hi := r.part*len(probes)/rounds, (r.part+1)*len(probes)/rounds
		registerProbe(r, probes[lo:hi])

		for begin := time.Now(); time.Since(begin) < restartBudget; {
			s, err := persistent.restartCycle()
			if err != nil {
				return nil, fmt.Errorf("restart %d: %w", len(restarts)+1, err)
			}
			restarts = append(restarts, s)
		}
	}
	res.report(&r.win, len(r.pool[0].text), r.cpuS, r.cpuOK)
	res.register(r.registerMs)
	if w.writes {
		res.diag("churn.registrations", float64(len(r.registerMs)), "count")
	}
	res.set("restart_s", median(restarts), "s")
	res.Samples["restart"] = len(restarts)
	res.Series["restart_s"] = restarts

	share := selfCPU.Seconds() / measured.Seconds() / float64(runtime.GOMAXPROCS(0))
	res.diag("loadgen.cpu_share", share, "ratio")
	if share > 0.5 {
		res.flag("loadgen.cpu_share %.2f > 0.5: the generator competed with the server for the machine", share)
	}
	if ticks, stolen := hostCPU(); ticks > ticks0 {
		steal := float64(stolen-stolen0) / float64(ticks-ticks0)
		res.diag("host.steal_share", steal, "ratio")
		if steal > 0.05 {
			res.flag("host.steal_share %.2f > 0.05: the hypervisor ran someone else for that share of the rounds, every time in this run reads too long", steal)
		}
	}
	res.diag("matchd.peak_rss_mb", serving.peakRSSMB(), "MB")
	return res, nil
}

// registerProbe registers fresh churn-shaped dictionaries one after the
// other through the entry node of the otherwise idle serving deployment,
// checking one match against each and deleting it again, so that every part
// meets the deployment as set-up left it.
func registerProbe(r *run, fresh []freshDict) {
	c := r.conns[0]
	var t tally
	for _, f := range fresh {
		var id string
		time.Sleep(settle)
		t0 := time.Now()
		err := c.do(f.register(r.d, &id), true)
		t.note(err)
		if err != nil {
			continue
		}
		r.registerMs = append(r.registerMs, float64(time.Since(t0))/float64(time.Millisecond))
		t.note(c.do(f.match(r.d, id), true))
		t.note(callJSON(http.MethodDelete, r.d.entry.base+"/v1/dicts/"+id, nil, nil))
	}
	r.res.count(t)
}

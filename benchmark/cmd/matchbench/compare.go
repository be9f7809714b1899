package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one invocation's results with what is needed to read them.
type record struct {
	NProc          int       `json:"nproc"`
	GeneratorCPUs  []int     `json:"generator_cpus"` // nil on a box with one CPU: nothing is confined
	ServerCPUs     []int     `json:"server_cpus"`
	GeneratorProcs int       `json:"gomaxprocs_generator"`
	ServerProcs    int       `json:"gomaxprocs_server"` // matchd is given no -procs: the Go default for its CPUs
	GoVersion      string    `json:"go_version"`
	GitCommit      string    `json:"git_commit"`
	Seed           uint64    `json:"seed"`
	WindowS        float64   `json:"window_s"`
	WarmupS        float64   `json:"warmup_s"`
	OpenLoopRate   float64   `json:"open_loop_rate_per_s"`
	FullCheckEvery int       `json:"full_check_every"`
	Results        []*result `json:"results"`
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// find returns the run of workload with the given tracing, or nil.
func (rec *record) find(workload string, traced bool) *result {
	for _, r := range rec.Results {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// verdict places new against old for a metric whose better direction and
// bound are def's. worsening is the change as a share of old, positive when
// the metric got worse.
func verdict(def metricDef, old, new float64) (worsening float64, v string) {
	worsening = (new - old) / old
	if def.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case math.IsNaN(worsening) || math.IsInf(worsening, 0):
		return worsening, "missing"
	case worsening > def.Bound:
		return worsening, "worse"
	case worsening < -def.Bound:
		return worsening, "better"
	}
	return worsening, "within"
}

// compare prints one row per (workload, end-to-end metric) of the two
// records and returns how many rows are worse or missing. Per-layer metrics
// follow as information only.
func compare(w io.Writer, old, new *record) int {
	bad := 0
	fmt.Fprintf(w, "%-8s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, wl := range workloads {
		o, n := old.find(wl.name, false), new.find(wl.name, false)
		if o == nil && n == nil {
			continue // a workload neither set ran is not compared
		}
		for _, def := range endToEnd {
			var ov, nv metric
			var oOK, nOK bool
			if o != nil {
				ov, oOK = o.Metrics[def.Name]
			}
			if n != nil {
				nv, nOK = n.Metrics[def.Name]
			}
			if !oOK || !nOK {
				bad++
				fmt.Fprintf(w, "%-8s %-22s %14s %14s %9s %7.2f  missing\n", wl.name, def.Name, present(ov, oOK), present(nv, nOK), "-", def.Bound)
				continue
			}
			_, v := verdict(def, ov.Value, nv.Value)
			if v == "worse" || v == "missing" {
				bad++
			}
			fmt.Fprintf(w, "%-8s %-22s %14.4f %14.4f %9.4f %7.2f  %s\n", wl.name, def.Name, ov.Value, nv.Value, nv.Value/ov.Value, def.Bound, v)
		}
		for _, r := range []*result{o, n} {
			if r != nil && r.Failed > 0 {
				bad++
				fmt.Fprintf(w, "%-8s %-22s %d of %d operations failed: %s\n", wl.name, "error_share", r.Failed, r.Attempted, r.FirstError)
			}
		}
	}
	fmt.Fprintf(w, "\nratios are new/old (base = old, %s); a row is worse when the metric moved against its better direction by more than bound × old\n", oldLabel(old))
	fmt.Fprintln(w, "\nper-layer metrics (information only, from the traced runs):")
	for _, wl := range workloads {
		o, n := old.find(wl.name, true), new.find(wl.name, true)
		if o == nil || n == nil {
			continue
		}
		names := make([]string, 0, len(n.Metrics))
		for name := range n.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if ov, ok := o.Metrics[name]; ok {
				fmt.Fprintf(w, "%-8s %-36s %14.4f %14.4f %9.4f %s\n", wl.name, name, ov.Value, n.Metrics[name].Value, n.Metrics[name].Value/ov.Value, ov.Unit)
			}
		}
	}
	return bad
}

func present(m metric, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.4f", m.Value)
}

func oldLabel(rec *record) string {
	return fmt.Sprintf("commit %s seed %d", rec.GitCommit, rec.Seed)
}

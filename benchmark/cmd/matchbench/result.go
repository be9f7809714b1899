package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the end-to-end metrics of an untraced run or
// the per-layer metrics of a traced one, plus what backs them.
type result struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Seed       uint64            `json:"seed"`
	WindowS    float64           `json:"window_s"`
	Attempted  int               `json:"attempted"`
	OK         int               `json:"ok"`
	Failed     int               `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Diag holds diagnostics of an untraced run that are not gated: tail
	// latency, generator validity, process footprint.
	Diag map[string]metric `json:"diagnostics,omitempty"`
	// Samples is the number of samples behind each percentile or median.
	Samples map[string]int `json:"samples"`
	// Series keeps the short raw series medians are taken from, in the order
	// measured, so a reader can see whether a run was stationary.
	Series map[string][]float64 `json:"series,omitempty"`
	Flags  []string             `json:"flags,omitempty"`
}

func newResult(workload string, traced bool, seed uint64, windowS float64) *result {
	return &result{
		Workload: workload, Traced: traced, Seed: seed, WindowS: windowS,
		Metrics: map[string]metric{}, Diag: map[string]metric{}, Samples: map[string]int{}, Series: map[string][]float64{},
	}
}

// set records a metric. A value that is not a number is left out and
// flagged: the run then lacks a declared metric and cannot be correct.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.flag("%s is not a number (%v): no samples behind it", name, v)
		return
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *result) diag(name string, v float64, unit string) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.Diag[name] = metric{v, unit}
	}
}

// flag records a reason the run's numbers must not be taken at face value.
func (r *result) flag(format string, args ...any) {
	r.Flags = append(r.Flags, fmt.Sprintf(format, args...))
}

// count adds a phase's attempts and failures to the run's totals.
func (r *result) count(t tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.OK += t.ok()
	if r.FirstError == "" && t.firstErr != nil {
		r.FirstError = t.firstErr.Error()
	}
}

// partSlices is how many slices each measured part of a run is cut into.
const partSlices = 4

// window gathers the measured parts of a run. A run measures in several
// parts some seconds apart, each part is cut into partSlices slices, and a
// window metric is first computed per slice. What the run reports is the
// quartile of the slice values on the better side: the shared host slows
// stretches of a run down by up to a third and never speeds one up, so the
// least disturbed quarter of the slices is what repeats from run to run.
type window struct {
	rates, p50s, p90s []float64 // one value per slice
	latencies         []float64 // every OK latency, for the whole-window diagnostics
	ok                int       // OK requests of the throughput parts
	span              time.Duration
}

// throughput adds a closed-loop part's completions.
func (w *window) throughput(t tally) {
	for _, s := range t.slices(partSlices) {
		w.rates = append(w.rates, s.rate)
	}
	w.ok += t.ok()
	w.span += t.span
}

// latency adds a part's latencies.
func (w *window) latency(t tally) {
	for _, s := range t.slices(partSlices) {
		if !math.IsNaN(s.p50) {
			w.p50s = append(w.p50s, s.p50)
			w.p90s = append(w.p90s, s.p90)
		}
	}
	w.latencies = append(w.latencies, t.latencies...)
}

// report derives the window metrics: bytesPerReq is the text each request
// matched, cpuS the server CPU the throughput parts cost and cpuOK the OK
// requests that CPU is spread over.
func (r *result) report(w *window, bytesPerReq int, cpuS float64, cpuOK int) {
	rate := quartile(w.rates, 3)
	r.set("req_per_s", rate, "1/s")
	r.set("mb_per_s", rate*float64(bytesPerReq)/1e6, "MB/s")
	r.set("latency_p50_ms", quartile(w.p50s, 1), "ms")
	r.set("latency_p90_ms", quartile(w.p90s, 1), "ms")
	r.Samples["throughput"], r.Samples["latency"], r.Samples["slices"] = w.ok, len(w.latencies), len(w.rates)
	r.Series["slice_req_per_s"], r.Series["slice_p50_ms"], r.Series["slice_p90_ms"] = w.rates, w.p50s, w.p90s

	// The same over the whole window, every slice counted: what a client saw
	// of this run, the host's slow stretches included.
	sort.Float64s(w.latencies)
	r.diag("loadgen.req_per_s_all", float64(w.ok)/w.span.Seconds(), "1/s")
	for _, p := range []float64{50, 90, 99} {
		v, ok := percentile(w.latencies, p)
		if ok {
			r.diag(fmt.Sprintf("loadgen.latency_p%.0f_all_ms", p), v, "ms")
		} else if p == 90 {
			r.flag("latency_p90_ms rests on %d samples: fewer than %d lie beyond it", len(w.latencies), minBeyond)
		}
	}
	r.diag("matchd.cpu_ms_per_req", cpuS*1000/float64(cpuOK), "ms")
	r.diag("matchd.cpu_util", cpuS/w.span.Seconds(), "ratio")
}

// register derives register_p25_ms from registration latencies, and their
// median as a diagnostic. Registrations come in two kinds — matchd's heap is
// small, so every second or third one runs into a GC cycle of its own making
// and takes half as long again — and the median falls into the gap between
// the two, on one side or the other from run to run. The first quartile lies
// inside the faster kind.
func (r *result) register(ms []float64) {
	r.Samples["register"] = len(ms)
	if len(ms) <= 2*registerProbes {
		r.Series["register_ms"] = append([]float64(nil), ms...)
	}
	sort.Float64s(ms)
	v, _ := percentile(ms, 25)
	r.set("register_p25_ms", v, "ms")
	if len(ms) < 2*minBeyond {
		r.flag("register_p25_ms rests on %d samples", len(ms))
	}
	p50, _ := percentile(ms, 50)
	r.diag("matchd.register_p50_ms", p50, "ms")
}

// correct reports whether every operation was attempted and verified and
// every declared metric is there (set keeps only finite numbers).
func (r *result) correct(defs []metricDef) bool {
	if r.Attempted < 1 || r.Failed > 0 {
		return false
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return false
		}
	}
	return true
}

// printTable writes every metric by name with its unit, then diagnostics,
// sample counts and flags.
func (r *result) printTable(w io.Writer, defs []metricDef) {
	kind := "end-to-end (untraced)"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s · %s · seed %d · window %.1fs ==\n", r.Workload, kind, r.Seed, r.WindowS)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-36s %14s\n", d.Name, "missing")
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
	}
	names := make([]string, 0, len(r.Diag))
	for name := range r.Diag {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s (diagnostic)\n", name, r.Diag[name].Value, r.Diag[name].Unit)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  attempted %d · ok %d · failed %d · error_share %.6f\n", r.Attempted, r.OK, r.Failed, share)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
	}
	var counts []string
	for name, n := range r.Samples {
		counts = append(counts, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(counts)
	fmt.Fprintf(w, "  samples: %s\n", strings.Join(counts, " "))
	series := make([]string, 0, len(r.Series))
	for name := range r.Series {
		series = append(series, name)
	}
	sort.Strings(series)
	for _, name := range series {
		fmt.Fprintf(w, "  series %s:", name)
		for _, v := range r.Series[name] {
			fmt.Fprintf(w, " %.4g", v)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "  FLAG: %s\n", f)
	}
}

// contractLine is the run's last line of output: one JSON object with
// exactly the keys correct, attempted, failed and metrics, the metrics being
// exactly the declared ones.
func (r *result) contractLine(defs []metricDef) string {
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			metrics[d.Name] = m
		}
	}
	line, _ := json.Marshal(struct { // finite floats and strings always marshal
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(defs), r.Attempted, r.Failed, metrics})
	return string(line)
}

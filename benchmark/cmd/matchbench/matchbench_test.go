package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ahocorasick"
)

// The benchmark addresses everything relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir("../../.."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 109)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); !ok || v != 99 {
		t.Errorf("p90 of 1..109 = %v, %v; want 99 with 10 samples beyond it", v, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples was reported with only 9 samples beyond it")
	}
	if _, ok := percentile(xs[:19], 50); ok {
		t.Error("p50 of 19 samples was reported with only 9 samples beyond it")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of nothing was reported")
	}
}

func TestSlicesAndQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 4, 3, 9, 2, 8, 6, 5}
	if q1, q3 := quartile(xs, 1), quartile(xs, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q := quartile([]float64{4}, 3); q != 4 {
		t.Errorf("quartile of one value = %v", q)
	}

	// 2 s of one request per 10 ms taking 5 ms, but 50 ms in the second
	// half: four slices, two of them slow. The better-side quartiles report
	// the undisturbed ones.
	var samples []sample
	for at := time.Duration(0); at < 2*time.Second; at += 10 * time.Millisecond {
		took := 5 * time.Millisecond
		if at >= time.Second {
			took, at = 50*time.Millisecond, at+40*time.Millisecond
		}
		samples = append(samples, sample{due: at, ready: at, sent: at, done: at + took})
	}
	tl := tallySamples(samples)
	sl := tl.slices(4)
	if len(sl) != 4 || sl[0].p50 != 5 || sl[3].p50 != 50 || sl[0].rate < 95 || sl[3].rate > 25 {
		t.Fatalf("slices %+v", sl)
	}
	var w window
	w.throughput(tl)
	w.latency(tl)
	res := newResult("x", false, 1, 2)
	res.report(&w, 1000, 1, tl.ok())
	if v := res.Metrics["latency_p90_ms"].Value; v != 5 {
		t.Errorf("latency_p90_ms %v, want the undisturbed slices' 5", v)
	}
	if v := res.Metrics["req_per_s"].Value; v < 95 || v > 105 {
		t.Errorf("req_per_s %v, want the undisturbed slices' 100", v)
	}
	if all := res.Diag["loadgen.latency_p90_all_ms"].Value; all != 50 {
		t.Errorf("whole-window p90 %v, want 50: the diagnostic counts every slice", all)
	}
}

func TestStartOnConfinesTheChildOnly(t *testing.T) {
	cpus, err := allowedCPUs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cpus) < 2 {
		t.Skip("one CPU: nothing to split")
	}
	last := cpus[len(cpus)-1:]
	var out bytes.Buffer
	cmd := exec.Command("grep", "Cpus_allowed_list", "/proc/self/status")
	cmd.Stdout = &out
	if err := startOn(cmd, last); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Fields(out.String()); len(got) != 2 || got[1] != strconv.Itoa(last[0]) {
		t.Errorf("child ran with %q, want CPU %d alone", out.String(), last[0])
	}
	runtime.LockOSThread() // any thread will do: the forking one was moved back
	defer runtime.UnlockOSThread()
	if after, _ := allowedCPUs(); !reflect.DeepEqual(after, cpus) {
		t.Errorf("the test's own CPUs are %v after the fork, were %v", after, cpus)
	}
}

func TestOpenLoopScheduleSeededAndTimedFromDue(t *testing.T) {
	a := poissonSchedule(7, 600, time.Second)
	if !reflect.DeepEqual(a, poissonSchedule(7, 600, time.Second)) {
		t.Error("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 600, time.Second)) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) < 500 || len(a) > 700 {
		t.Errorf("%d arrivals in 1 s at 600/s", len(a))
	}

	// Two requests due at once on one connection to a server that takes
	// 20 ms: the second is sent late, and its latency still counts from when
	// it was due.
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { time.Sleep(service) }))
	defer srv.Close()
	c := newConn()
	defer c.close()
	ok := &request{url: srv.URL, check: func(int, []byte, bool) error { return nil }}
	due := 5 * time.Millisecond
	tl := tallySamples(openLoop([]*conn{c}, []time.Duration{due, due}, func(int) *request { return ok }))
	if tl.attempted != 2 || tl.failed != 0 {
		t.Fatalf("tally %+v", tl)
	}
	if second := tl.latencies[1]; second < 2*ms(service) {
		t.Errorf("the queued request's latency is %.1f ms: not counted from its due time", second)
	}
	if tl.queuedShare != 0.5 {
		t.Errorf("queued share %.2f, want 0.5", tl.queuedShare)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	at := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, StartNs: start, EndNs: end}
	}
	spans := []span{at(0, -1, 0, 100), at(1, 0, 10, 70), at(2, 1, 20, 30), at(3, 1, 40, 55), at(4, -1, 200, 230)}
	want := map[int]time.Duration{0: 40, 1: 35, 2: 10, 3: 15, 4: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}

	// The ladder of several requests is their median request; its self
	// times telescope to the root's median.
	var tr []span
	for req, d := range [][3]int64{{100, 60, 10}, {120, 50, 30}, {110, 70, 20}} {
		base := len(tr)
		tr = append(tr,
			span{ID: base, Name: rungRoundtrip, Request: req, Parent: -1, EndNs: d[0]},
			span{ID: base + 1, Name: rungHandler, Request: req, Parent: base, EndNs: d[1]},
			span{ID: base + 2, Name: rungScan, Request: req, Parent: base + 1, EndNs: d[2]})
	}
	lad := ladder(tr)
	if len(lad) != 3 || lad[0].duration() != 110 || lad[1].duration() != 60 || lad[2].duration() != 20 || lad[2].Parent != 1 {
		t.Fatalf("ladder %+v", lad)
	}
	var sum time.Duration
	for _, s := range selfTimes(lad) {
		if s < 0 {
			t.Errorf("negative self time in %v", selfTimes(lad))
		}
		sum += s
	}
	if sum != lad[0].duration() {
		t.Errorf("self times sum to %d, root is %d", sum, lad[0].duration())
	}
}

func TestGeneratorsSeeded(t *testing.T) {
	gen := func(seed uint64) []byte {
		dict := genDict(subSeed(seed, 1), shapeS)
		var buf bytes.Buffer
		buf.Write(bytes.Join(dict, nil))
		buf.Write(plantedText(subSeed(seed, 2), 4096, shapeS.sigma, plantGap, dict))
		buf.Write(bytes.Join(smallPool(seed, dict), nil))
		for _, f := range freshDicts(seed, 1000, 3) {
			buf.Write(f.body)
			buf.Write(f.text)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(gen(5), gen(5)) {
		t.Error("equal seeds gave different inputs")
	}
	if bytes.Equal(gen(5), gen(6)) {
		t.Error("different seeds gave the same inputs")
	}
	dict := genDict(3, shapeL)
	seen := map[string]bool{}
	for _, p := range dict {
		if seen[string(p)] {
			t.Fatal("genDict repeated a pattern: pattern ids would be ambiguous")
		}
		seen[string(p)] = true
	}
	if hits := oracleHits(ahocorasick.New(dict), plantedText(4, 1<<16, shapeL.sigma, plantGap, dict)); len(hits) < 64 {
		t.Errorf("%d planted occurrences found in 64 KiB, want about 128", len(hits))
	}
}

func TestVerifierRejectsAlteredReply(t *testing.T) {
	want := []hit{{Pos: 3, Pattern: 7, Length: 9}, {Pos: 40, Pattern: 1, Length: 12}}
	reply := func(hits []hit) []byte {
		b, _ := json.Marshal(map[string]any{"n": 64, "attempts": 1, "matched": len(hits), "engine": "dense", "hits": hits})
		return b
	}
	check := matchCheck(want)
	for _, full := range []bool{false, true} {
		if err := check(200, reply(want), full); err != nil {
			t.Errorf("correct reply rejected (full=%v): %v", full, err)
		}
		if check(500, reply(want), full) == nil {
			t.Errorf("status 500 accepted (full=%v)", full)
		}
		if check(200, reply(want[:1]), full) == nil {
			t.Errorf("reply with a missing hit accepted (full=%v)", full)
		}
	}
	for _, altered := range []hit{{3, 7, 8}, {3, 6, 9}, {4, 7, 9}} {
		if check(200, reply([]hit{altered, want[1]}), true) == nil {
			t.Errorf("reply with hit altered to %+v accepted", altered)
		}
	}

	stream := func(hits []hit, summary string) []byte {
		var buf bytes.Buffer
		for _, h := range hits {
			fmt.Fprintf(&buf, `{"pos":%d,"pattern":%d,"length":%d}`+"\n", h.Pos, h.Pattern, h.Length)
		}
		buf.WriteString(summary)
		return buf.Bytes()
	}
	scheck := streamCheck(want)
	summary := `{"summary":{"n":64,"segments":1,"events":2,"rounds":1}}` + "\n"
	if err := scheck(200, stream(want, summary), true); err != nil {
		t.Errorf("correct stream rejected: %v", err)
	}
	if scheck(200, stream(want, ""), false) == nil {
		t.Error("stream without a summary accepted")
	}
	if scheck(200, stream(want, `{"error":"boom"}`+"\n"), false) == nil {
		t.Error("stream ending in an error line accepted")
	}
	if scheck(200, stream(want, `{"summary":{"n":64,"events":20}}`+"\n"), false) == nil {
		t.Error("summary with another event count accepted")
	}
	if scheck(200, stream([]hit{want[0], {40, 1, 11}}, summary), true) == nil {
		t.Error("stream with one altered event accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower, higher := metricDef{"l", "ms", "lower", 0.10}, metricDef{"h", "1/s", "higher", 0.10}
	for _, c := range []struct {
		def      metricDef
		old, new float64
		want     string
	}{
		{lower, 100, 105, "within"}, {lower, 100, 111, "worse"}, {lower, 100, 80, "better"},
		{higher, 100, 95, "within"}, {higher, 100, 89, "worse"}, {higher, 100, 120, "better"},
		{lower, 0, 5, "missing"},
	} {
		if _, got := verdict(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s-is-better %v → %v: verdict %s, want %s", c.def.Better, c.old, c.new, got, c.want)
		}
	}

	full := func(scale float64) *record {
		r := newResult("small", false, 1, 8)
		r.Attempted, r.OK = 10, 10
		for _, d := range endToEnd {
			r.set(d.Name, 10*scale, d.Unit)
		}
		return &record{Results: []*result{r}}
	}
	var out bytes.Buffer
	if bad := compare(&out, full(1), full(1.01)); bad != 0 {
		t.Errorf("a 1%% change gave %d bad rows:\n%s", bad, out.String())
	}
	worse := full(1)
	worse.Results[0].set("latency_p50_ms", 20, "ms")
	delete(worse.Results[0].Metrics, "restart_s")
	if bad := compare(&out, full(1), worse); bad != 2 {
		t.Errorf("one worse and one missing row gave %d bad rows:\n%s", bad, out.String())
	}
}

// TestManifest keeps BENCHMARK.json and the declarations in this package
// equal, and inside the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the declarations:\n%+v\n%+v", man.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(man.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the declarations:\n%+v\n%+v", man.PerLayer, perLayer)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d declared", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v in the manifest, {%s %s} declared", i, man.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || w.conns > 2 {
			t.Errorf("workload %s: why of %d characters, %d connections", w.name, len(w.why), w.conns)
		}
	}
	runs := 4 + 22*len(workloads)
	if man.RunSeconds < 1 || man.RunSeconds > 60 || len(man.PerLayer) > 128 || len(man.EndToEnd) > 16 {
		t.Errorf("run_seconds %d, %d per-layer and %d end-to-end metrics", man.RunSeconds, len(man.PerLayer), len(man.EndToEnd))
	}
	t.Logf("the driver makes %d runs of %d s windows", runs, man.RunSeconds)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
			t.Errorf("metric %+v breaks a limit of the contract or repeats a name", d)
		}
		seen[d.Name] = true
	}
}

// TestSmoke builds matchd and runs two workloads end to end with 1 s
// windows, then one traced run: every declared metric must be there and
// finite, and no operation may fail. It ends by corrupting one entry of the
// verifier's table, which must turn the run incorrect.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs matchd")
	}
	if err := os.MkdirAll(outDir+"/tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := buildMatchd(outDir)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{ps: &procs{}, bin: bin, outDir: outDir}
	defer e.ps.killAll()
	complete := func(res *result, defs []metricDef) {
		t.Helper()
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("%s: metric %s is %+v (present: %v)", res.Workload, d.Name, m, ok)
			}
		}
		if !res.correct(defs) {
			t.Errorf("%s: %d of %d operations failed: %s", res.Workload, res.Failed, res.Attempted, res.FirstError)
		}
	}
	for _, name := range []string{"small", "stream"} {
		res, err := e.runUntraced(findWorkload(name), 1, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		complete(res, endToEnd)
	}
	res, dump, err := e.runTraced(findWorkload("small"), 1, time.Second)
	if err != nil {
		t.Fatalf("traced small: %v", err)
	}
	complete(res, perLayer)
	if len(dump.Spans) < 4*tracedRequests(findWorkload("small")) || len(dump.Ladder) != 4 {
		t.Errorf("traced small recorded %d spans and a ladder of %d rungs", len(dump.Spans), len(dump.Ladder))
	}

	// One flipped entry of the verifier's table must turn a run incorrect.
	in, err := smallInputs(1, "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.deploy(1, in.dicts, false)
	if err != nil {
		t.Fatal(err)
	}
	pool := in.pool(d)
	want := oracleHits(ahocorasick.New(in.dicts[0]), pool[0].text)
	want[0].Length++
	pool[0].check = matchCheck(want)
	c := newConn()
	defer c.close()
	flipped := newResult("small", false, 1, 0)
	flipped.count(tallySamples(closedLoop([]*conn{c}, 200*time.Millisecond, func(i int) *request { return pool[i%len(pool)] }, true)))
	if err := d.teardown(); err != nil {
		t.Error(err)
	}
	if flipped.Failed == 0 || flipped.correct(nil) {
		t.Errorf("one flipped expected hit went unnoticed: %d failed of %d", flipped.Failed, flipped.Attempted)
	}
}

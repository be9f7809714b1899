package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/czsearch"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/stream"
)

// A traced run replays the first requests of a workload's seeded schedule
// and records, per request, one span around each rung of the ladder: the
// round trip to the real child, then — in this process, on the same bytes —
// the handler, the serving function under it and the engine under that.
// Spans live in memory and are written to trace.json when the run ends.

// span is one timed interval. Spans of one request share Request; Parent
// is the ID of the span that caused this one, or -1.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer collects spans in memory.
type tracer struct {
	begin time.Time
	spans []span
}

// around runs f inside a new span and returns the span's id.
func (t *tracer) around(name string, request, parent int, f func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Request: request, Parent: parent})
	start := time.Since(t.begin)
	f()
	end := time.Since(t.begin)
	t.spans[id].StartNs, t.spans[id].EndNs = int64(start), int64(end)
	return id
}

// warm runs f once unrecorded and then inside a new span. The child serves
// requests back to back, so its code and tables are hot; an in-process rung
// called once per request would be timed cold and could read longer than the
// rung above it. Every in-process rung is therefore measured on its second
// call.
func (t *tracer) warm(name string, request, parent int, f func()) int {
	f()
	return t.around(name, request, parent, f)
}

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.duration()
		if s.Parent >= 0 {
			self[s.Parent] -= s.duration()
		}
	}
	return self
}

// Rung names. Which of them a request has depends on its route.
const (
	rungRoundtrip = "loadgen.roundtrip"
	rungHandler   = "server.handler"
	rungMatch     = "server.match"
	rungScan      = "dense.scan"
	rungStream    = "stream.match"
	rungTree      = "core.tree"
	rungCheck     = "core.check"
	rungCz        = "czsearch.run"
	rungDecode    = "lz.decode"
)

// tracedCPUWindow is the longest closed loop a traced run drives to take
// matchd.cpu_ms_per_req.
const tracedCPUWindow = 2 * time.Second

// tracedRequests is how many requests of a workload's schedule are
// replayed: fewer where one request takes milliseconds.
func tracedRequests(w *workload) int {
	switch w.name {
	case "bulk":
		return 32
	case "stream":
		return 16
	case "cz_inc":
		return 64
	}
	return 256
}

// engines holds what the in-process rungs of one workload call into.
type engines struct {
	m        *pram.Machine
	dicts    []*core.Dictionary
	auts     []*dense.Automaton
	scanners []*czsearch.Scanner // reused across requests, as the server pools them
	p        *inproc
	ids      []string // in-process dictionary ids, parallel to dicts
}

func newEngines(patterns [][][]byte) (*engines, error) {
	g := &engines{m: pram.New(runtime.GOMAXPROCS(0))}
	var err error
	if g.p, err = newInproc(); err != nil {
		return nil, err
	}
	for _, pats := range patterns {
		d := core.Preprocess(g.m, pats, core.Options{})
		a, err := dense.CompileDictionary(d, dense.Options{})
		if err != nil {
			return nil, err
		}
		id, err := g.p.register(pats)
		if err != nil {
			return nil, err
		}
		g.dicts, g.auts, g.ids = append(g.dicts, d), append(g.auts, a), append(g.ids, id)
		g.scanners = append(g.scanners, czsearch.NewScanner(a, czsearch.Config{}))
	}
	return g, nil
}

func (g *engines) close() {
	g.p.srv.Close()
	g.m.Close()
}

// replay records the in-process rungs of request i under span parent and
// checks the handler's reply with the request's own verifier.
func (g *engines) replay(ctx context.Context, t *tracer, i, parent int, q *request) error {
	route := q.url[strings.LastIndex(q.url, "/match"):]
	path := "/v1/dicts/" + g.ids[q.dict] + route
	var err error
	note := func(e error) {
		if err == nil {
			err = e
		}
	}
	handler := t.warm(rungHandler, i, parent, func() {
		rec := g.p.serve(http.MethodPost, path, q.ctype, q.body)
		note(q.check(rec.Code, rec.Body.Bytes(), true))
	})
	dict, aut := g.dicts[q.dict], g.auts[q.dict]
	switch route {
	case "/match":
		match := t.warm(rungMatch, i, handler, func() {
			_, _, _, e := g.p.srv.Match(ctx, g.ids[q.dict], q.text)
			note(e)
		})
		g.scan(t, i, match, aut, q.text)
	case "/match/stream":
		sm := t.warm(rungStream, i, handler, func() {
			_, e := stream.Match(ctx, stream.DictMatcher{Dict: dict, M: g.m}, bytes.NewReader(q.text), discardEvents{}, stream.Config{})
			note(e)
		})
		var matches []core.Match
		t.warm(rungTree, i, sm, func() { matches = dict.MatchText(g.m, q.text) })
		t.warm(rungCheck, i, sm, func() {
			if !dict.Check(g.m, q.text, matches) {
				note(fmt.Errorf("core.Check rejected the tree walk's answer"))
			}
		})
	case "/match/compressed":
		t.warm(rungCz, i, handler, func() {
			dec, e := lz.NewDecoder(bytes.NewReader(q.body))
			if e == nil {
				_, e = g.scanners[q.dict].Run(ctx, dec, func(czsearch.Event) error { return nil })
			}
			note(e)
		})
		// The baseline czsearch is judged against, beside the ladder.
		var plain []byte
		t.warm(rungDecode, i, -1, func() {
			c, e := lz.DecodeStream(q.body)
			if e == nil {
				plain, e = lz.Decode(c)
			}
			note(e)
		})
		g.scan(t, i, -1, aut, plain)
	default:
		return fmt.Errorf("no in-process rungs for route %q", route)
	}
	return err
}

// scan records the dense.scan rung of one text: the text scanned by one
// goroutine and split evenly over GOMAXPROCS goroutines, whichever is faster.
// The server shards large texts over its workers, so a single-threaded scan
// would read longer than the server.match rung above it; the faster of the
// two is the least wall time the engine needs with the cores at hand,
// whatever the server's own sharding rule is.
func (g *engines) scan(t *tracer, i, parent int, aut *dense.Automaton, text []byte) {
	out := make([]core.Match, len(text))
	one := t.warm(rungScan, i, parent, func() { aut.MatchInto(text, out) })
	parts := runtime.GOMAXPROCS(0)
	per := (len(text) + parts - 1) / parts
	if parts == 1 || per == 0 {
		return
	}
	split := t.warm(rungScan, i, parent, func() {
		var wg sync.WaitGroup
		for lo := 0; lo < len(text); lo += per {
			hi := min(lo+per, len(text))
			wg.Add(1)
			go func() {
				defer wg.Done()
				aut.MatchInto(text[lo:hi], out[lo:hi])
			}()
		}
		wg.Wait()
	})
	if t.spans[split].duration() < t.spans[one].duration() {
		t.spans[one].StartNs, t.spans[one].EndNs = t.spans[split].StartNs, t.spans[split].EndNs
	}
	t.spans = t.spans[:split]
}

// ladder is the median request: one span per rung whose duration is the
// rung's median over the traced requests, nested as the rungs are.
func ladder(spans []span) []span {
	byName := map[string][]float64{}
	parentName := map[string]string{}
	names := map[int]string{}
	var order []string
	for _, s := range spans {
		names[s.ID] = s.Name
		if _, seen := byName[s.Name]; !seen {
			order = append(order, s.Name)
			parentName[s.Name] = ""
			if s.Parent >= 0 {
				parentName[s.Name] = names[s.Parent]
			}
		}
		byName[s.Name] = append(byName[s.Name], float64(s.duration()))
	}
	idOf := map[string]int{"": -1}
	out := make([]span, len(order))
	for i, name := range order {
		idOf[name] = i
		out[i] = span{ID: i, Name: name, Request: -1, Parent: idOf[parentName[name]], EndNs: int64(median(byName[name]))}
	}
	return out
}

// runTraced is one traced run of w: every workload-independent layer probe,
// then the ladder of w's own requests.
func (e *env) runTraced(w *workload, seed uint64, window time.Duration) (res *result, dump *traceDump, err error) {
	res = newResult(w.name, true, seed, window.Seconds())
	if err := e.layerProbes(seed, res); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	e.workload = w.name + "-traced"
	in, err := w.inputs(seed, corpusDirOf(e.outDir))
	if err != nil {
		return nil, nil, fmt.Errorf("generate inputs: %w", err)
	}
	d, err := e.deploy(1, in.dicts, false)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if terr := d.teardown(); terr != nil && err == nil {
			res, dump, err = nil, nil, terr
		}
	}()
	res.set("matchd.start_ms", d.startMs, "ms")
	pool := in.pool(d)
	c := newConn()
	defer c.close()
	n := tracedRequests(w)
	next := func(i int) *request { return pool[i%len(pool)] }
	res.count(tallySamples(closedLoop([]*conn{c}, warmup, next, true)))

	// One pass without spans, one with: the difference of the medians is
	// what recording costs.
	var plain, traced tally
	untracedMs := make([]float64, n)
	for i := range untracedMs {
		t0 := time.Now()
		plain.note(c.do(next(i), true))
		untracedMs[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	res.count(plain)

	g, err := newEngines(in.dicts)
	if err != nil {
		return nil, nil, err
	}
	defer g.close()
	selfCPU, begin := procCPU(os.Getpid()), time.Now()
	t := &tracer{begin: begin}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		q := next(i)
		parent := t.around(rungRoundtrip, i, -1, func() { traced.note(c.do(q, true)) })
		traced.note(g.replay(ctx, t, i, parent, q))
	}
	res.count(traced)
	selfShare := (procCPU(os.Getpid()) - selfCPU).Seconds() / time.Since(begin).Seconds() / float64(runtime.GOMAXPROCS(0))

	// CPU per request needs load, not a replay: a short closed loop over
	// the workload's own connections.
	conns := []*conn{c}
	for len(conns) < w.conns {
		extra := newConn()
		defer extra.close()
		conns = append(conns, extra)
	}
	before := d.cpu()
	loop := tallySamples(closedLoop(conns, min(window, tracedCPUWindow), next, false))
	cpuS := (d.cpu() - before).Seconds()
	res.count(loop)
	res.set("matchd.cpu_ms_per_req", cpuS*1000/float64(loop.ok()), "ms")
	res.set("matchd.cpu_util", cpuS/loop.span.Seconds(), "ratio")
	res.set("loadgen.cpu_share", selfShare, "ratio")
	res.set("matchd.peak_rss_mb", d.peakRSSMB(), "MB")

	lad := ladder(t.spans)
	self := selfTimes(lad)
	byName := map[string]time.Duration{}
	for _, s := range lad {
		byName[s.Name] = self[s.ID]
	}
	roundtrip := lad[0].duration()
	res.set("trace.requests", float64(n), "count")
	res.set("trace.roundtrip_ms", ms(roundtrip), "ms")
	res.set("trace.overhead_ms", ms(roundtrip)-median(untracedMs), "ms")
	res.set("trace.edge_self_ms", ms(byName[rungRoundtrip]), "ms")
	res.set("trace.handler_self_ms", ms(byName[rungHandler]), "ms")
	// Under the handler: the serving function and the engine it drives. The
	// compressed route's handler drives the scanner itself.
	if _, buffered := byName[rungMatch]; buffered {
		res.set("trace.serve_self_ms", ms(byName[rungMatch]), "ms")
		res.set("trace.engine_ms", ms(byName[rungScan]), "ms")
	} else if _, streamed := byName[rungStream]; streamed {
		res.set("trace.serve_self_ms", ms(byName[rungStream]), "ms")
		res.set("trace.engine_ms", ms(byName[rungTree]+byName[rungCheck]), "ms")
	} else {
		res.set("trace.serve_self_ms", 0, "ms")
		res.set("trace.engine_ms", ms(byName[rungCz]), "ms")
	}
	printLadder(lad, self, roundtrip, ms(roundtrip)-median(untracedMs), res)
	return res, &traceDump{Workload: w.name, Seed: seed, Spans: t.spans, Ladder: lad}, nil
}

// printLadder prints each rung's median and self time, checks that the
// ladder is monotone, and says what tracing cost.
func printLadder(lad []span, self map[int]time.Duration, roundtrip time.Duration, overheadMs float64, res *result) {
	fmt.Printf("\n  ladder of %s (median of %d traced requests; self = rung minus the rungs under it)\n", res.Workload, int(res.Metrics["trace.requests"].Value))
	var sum time.Duration
	for _, s := range lad {
		depth := 0
		for p := s.Parent; p >= 0; p = lad[p].Parent {
			depth++
		}
		chained := s.Parent >= 0 || s.Name == rungRoundtrip
		if chained {
			sum += self[s.ID]
		}
		note := ""
		if !chained {
			note = "  (beside the ladder)"
		}
		fmt.Printf("  %-28s %10.4f ms   self %10.4f ms%s\n", strings.Repeat("  ", depth)+s.Name, ms(s.duration()), ms(self[s.ID]), note)
		if chained && self[s.ID] < 0 {
			res.flag("ladder is not monotone: %s has self time %.4f ms", s.Name, ms(self[s.ID]))
		}
	}
	fmt.Printf("  self times sum to %.4f ms; %s median is %.4f ms\n", ms(sum), rungRoundtrip, ms(roundtrip))
	fmt.Printf("  tracing overhead: %+.4f ms on the round-trip median (traced minus untraced pass)\n", overheadMs)
}

// traceDump is one workload's part of trace.json: every span and the ladder.
type traceDump struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
	Ladder   []span `json:"ladder"`
}

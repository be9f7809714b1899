package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/czsearch"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/persist"
	"repro/internal/pram"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/textgen"
)

// The layer probes time public functions of each module on inputs
// generated from the run's seed, from outside: nothing inside the program is
// instrumented. README.md lists every function pinned here; a refactor that
// changes one of those signatures must re-point the probe in a benchmark
// change of its own.

// Probe input sizes.
const (
	probeBulkBytes   = 1 << 20         // the 1 MiB match of the layer ladder
	probeStreamBytes = 3 << 19         // 1.5 MiB: two default stream segments
	probeParseBytes  = 64 << 10        // §5 parse sample
	probeLZBytes     = 256 << 10       // §4 compress sample
	probeServeCalls  = 256             // consecutive Server.Match calls at 1 MiB: 4 oracle turns
	probeEdgeWindow  = 1 * time.Second // loopback closed loop behind matchd.edge_us_per_req
)

// timed runs f reps times and returns the median duration of one call; each
// timed sample is a batch of calls, so that calls of under a microsecond
// are not lost in the clock's own cost.
func timed(reps, batch int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			f()
		}
		ds[i] = float64(time.Since(t0)) / float64(batch)
	}
	return time.Duration(median(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func perByte(d time.Duration, n int) float64 {
	return float64(d) / float64(n)
}

// discardLog is the logger of every in-process server: the one non-zero
// field of its server.Config.
func discardLog() *log.Logger { return log.New(io.Discard, "", 0) }

// inproc is a server.Server built from the zero Config, driven through its
// Handler without a socket.
type inproc struct {
	srv *server.Server
	h   http.Handler
}

func newInproc() (*inproc, error) {
	srv, err := server.New(server.Config{Log: discardLog()})
	if err != nil {
		return nil, err
	}
	return &inproc{srv: srv, h: srv.Handler()}, nil
}

// serve sends one request through the handler and returns the reply.
func (p *inproc) serve(method, path, ctype string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec
}

// register creates a dictionary through the handler, as a client would, and
// waits for its dense automaton.
func (p *inproc) register(patterns [][]byte) (string, error) {
	var id string
	rec := p.serve(http.MethodPost, "/v1/dicts", "application/json", dictBody(patterns))
	if err := createdCheck(&id)(rec.Code, rec.Body.Bytes(), true); err != nil {
		return "", err
	}
	deadline := time.Now().Add(setupTimeout)
	for !bytes.Contains(p.serve(http.MethodGet, "/v1/dicts/"+id, "", nil).Body.Bytes(), []byte(`"dense":true`)) {
		if time.Now().After(deadline) {
			return "", fmt.Errorf("in-process dictionary %s not dense within %s", id, setupTimeout)
		}
		time.Sleep(pollEvery)
	}
	return id, nil
}

// layerProbes measures every workload-independent per-layer metric.
func (e *env) layerProbes(seed uint64, res *result) error {
	ctx := context.Background()
	procs := runtime.GOMAXPROCS(0)
	m := pram.New(procs)
	defer m.Close()

	patS := genDict(subSeed(seed, 1), shapeS)
	patL := genDict(subSeed(seed, 20), shapeL)
	patChurn := genDict(subSeed(seed, 1000), shapeChurn)
	smallText := smallPool(seed, patS)[0]
	bulkText := plantedText(subSeed(seed, 30), probeBulkBytes, shapeL.sigma, plantGap, patL)
	streamText := plantedText(subSeed(seed, 40), probeStreamBytes, shapeS.sigma, plantGap, patS)

	// core.Preprocess on a pram machine, with the machine's exact counters.
	var dictS, dictL, dictChurn *core.Dictionary
	dictS = core.Preprocess(m, patS, core.Options{})
	res.set("core.preprocess_ms.L", ms(timed(3, 1, func() { dictL = core.Preprocess(m, patL, core.Options{}) })), "ms")
	res.set("core.preprocess_ms.churn", ms(timed(5, 1, func() {
		m.ResetCounters()
		dictChurn = core.Preprocess(m, patChurn, core.Options{})
	})), "ms")
	work, depth := m.Counters()
	res.set("core.preprocess_work", float64(work), "count")
	res.set("core.preprocess_depth", float64(depth), "count")

	// dense.CompileDictionary, Stats, Encode, Restore.
	var autS, autL *dense.Automaton
	for _, c := range []struct {
		tag  string
		dict *core.Dictionary
		keep **dense.Automaton
	}{{"S", dictS, &autS}, {"L", dictL, &autL}, {"churn", dictChurn, new(*dense.Automaton)}} {
		var err error
		d := timed(5, 1, func() { *c.keep, err = dense.CompileDictionary(c.dict, dense.Options{}) })
		if err != nil {
			return fmt.Errorf("dense.CompileDictionary %s: %w", c.tag, err)
		}
		st := (*c.keep).Stats()
		res.set("dense.compile_ms."+c.tag, ms(d), "ms")
		res.set("dense.table_bytes."+c.tag, float64(st.TableBytes), "B")
		res.set("dense.states."+c.tag, float64(st.States), "count")
	}
	payload := autL.Encode()
	var restoreErr error
	res.set("dense.restore_ms.L", ms(timed(5, 1, func() { _, restoreErr = dense.Restore(payload, patL) })), "ms")
	if restoreErr != nil {
		return fmt.Errorf("dense.Restore: %w", restoreErr)
	}

	// (*dense.Automaton).MatchInto with a pre-sized out.
	outSmall := make([]core.Match, len(smallText))
	outBulk := make([]core.Match, len(bulkText))
	res.set("dense.scan_ns_per_byte.small", perByte(timed(21, 2000, func() { autS.MatchInto(smallText, outSmall) }), len(smallText)), "ns/B")
	res.set("dense.scan_ns_per_byte.bulk", perByte(timed(11, 1, func() { autL.MatchInto(bulkText, outBulk) }), len(bulkText)), "ns/B")
	res.set("dense.scan_allocs", testing.AllocsPerRun(5, func() { autL.MatchInto(bulkText, outBulk) }), "count")

	// The tree walk and the §3.4 checker on the stream text, then
	// stream.Match over the same text with the default stream.Config.
	var matches []core.Match
	m.ResetCounters()
	tree := timed(3, 1, func() { matches = dictS.MatchText(m, streamText) })
	work, depth = m.Counters()
	res.set("core.tree_ns_per_byte", perByte(tree, len(streamText)), "ns/B")
	res.set("core.match_work_per_byte", float64(work)/3/float64(len(streamText)), "count")
	res.set("core.match_depth", float64(depth)/3, "count")
	checked := true
	check := timed(3, 1, func() { checked = dictS.Check(m, streamText, matches) && checked })
	if !checked {
		return fmt.Errorf("core: the checker rejected the tree walk's answer on the stream text")
	}
	res.set("core.check_ns_per_byte", perByte(check, len(streamText)), "ns/B")
	var st stream.Stats
	var streamErr error
	streamed := timed(3, 1, func() {
		st, streamErr = stream.Match(ctx, stream.DictMatcher{Dict: dictS, M: m}, bytes.NewReader(streamText), discardEvents{}, stream.Config{})
	})
	if streamErr != nil {
		return fmt.Errorf("stream.Match: %w", streamErr)
	}
	res.set("stream.match_ns_per_byte", perByte(streamed, len(streamText)), "ns/B")
	res.set("stream.overhead_share", 1-float64(tree+check)/float64(streamed), "ratio")
	res.set("stream.max_resident_bytes", float64(st.MaxResident), "B")
	res.set("stream.segments", float64(st.Segments), "count")

	// czsearch.Scanner.Run beside decode-then-scan on the same containers.
	czIn := map[string]func(uint64, string) (*inputs, error){"rep": czRepInputs, "inc": czIncInputs}
	for _, tag := range []string{"rep", "inc"} {
		in, err := czIn[tag](seed, corpusDirOf(e.outDir))
		if err != nil {
			return err
		}
		text, container := in.texts[0], in.bodies[0]
		sc := czsearch.NewScanner(autS, czsearch.Config{})
		var cst czsearch.Stats
		var runErr error
		run := timed(5, 1, func() {
			dec, err := lz.NewDecoder(bytes.NewReader(container))
			if err != nil {
				runErr = err
				return
			}
			cst, runErr = sc.Run(ctx, dec, func(czsearch.Event) error { return nil })
		})
		if runErr != nil {
			return fmt.Errorf("czsearch %s: %w", tag, runErr)
		}
		out := make([]core.Match, len(text))
		var tokens int
		var decode time.Duration
		base := timed(5, 1, func() {
			t0 := time.Now()
			c, err := lz.DecodeStream(container)
			if err != nil {
				runErr = err
				return
			}
			tokens = len(c.Tokens)
			plain, err := lz.Decode(c)
			if err != nil {
				runErr = err
				return
			}
			decode = time.Since(t0)
			autS.MatchInto(plain, out)
		})
		if runErr != nil {
			return fmt.Errorf("lz.Decode %s: %w", tag, runErr)
		}
		res.set("czsearch.ns_per_rep_byte."+tag, perByte(run, len(text)), "ns/B")
		res.set("czsearch.touched_share."+tag, float64(cst.BytesTouched)/float64(cst.BytesRepresented), "ratio")
		res.set("czsearch.memo_hits."+tag, float64(cst.MemoHits), "count")
		res.set("czsearch.speedup."+tag, float64(base)/float64(run), "ratio")
		res.set("lz.tokens_per_kib."+tag, float64(tokens)/(float64(len(text))/1024), "count")
		if tag == "inc" {
			res.set("lz.decode_ns_per_byte", perByte(decode, len(text)), "ns/B")
		}
	}
	lzSample := textgen.New(subSeed(seed, 60)).Markov(probeLZBytes, 26, 0.5)
	res.set("lz.compress_ms_per_mib", ms(timed(1, 1, func() { lz.Compress(m, lzSample) }))*float64(1<<20)/float64(len(lzSample)), "ms")

	// §5: CompressStatic over a prefix-closed dictionary, on a text spelled
	// from its words so that a parse exists.
	words := textgen.New(subSeed(seed, 80)).PrefixClosedDictionary(64, 12, 4)
	parseDict := core.Preprocess(m, words, core.Options{})
	parseText := make([]byte, 0, probeParseBytes+16)
	for i := 0; len(parseText) < probeParseBytes; i++ {
		parseText = append(parseText, words[int(subSeed(seed, 81+uint64(i))%uint64(len(words)))]...)
	}
	var parseErr error
	parse := timed(3, 1, func() { _, parseErr = parseDict.CompressStatic(m, parseText) })
	if parseErr != nil {
		return fmt.Errorf("core.CompressStatic: %w", parseErr)
	}
	res.set("core.parse_ns_per_byte", perByte(parse, len(parseText)), "ns/B")

	// persist.EncodeBundle / LoadBundle of the L dictionary with its table.
	var bundle []byte
	res.set("persist.encode_ms.L", ms(timed(5, 1, func() { bundle = persist.EncodeBundle(dictL, autL) })), "ms")
	var loadErr error
	res.set("persist.load_ms.L", ms(timed(5, 1, func() { _, _, loadErr = persist.LoadBundle(bundle) })), "ms")
	if loadErr != nil {
		return fmt.Errorf("persist.LoadBundle: %w", loadErr)
	}
	res.set("persist.bundle_bytes.L", float64(len(bundle)), "B")

	// One pram super-step of the P1 shape.
	cells := make([]int64, 3000)
	res.set("pram.superstep_us", us(timed(5, 128, func() { m.ParallelFor(len(cells), func(i int) { cells[i]++ }) })), "us")

	if err := e.serverProbes(ctx, seed, patS, patL, smallText, bulkText, res); err != nil {
		return err
	}
	return nil
}

// serverProbes times (*server.Server).Match and Handler().ServeHTTP on the
// exact bodies the load generator sends, then the same small request over
// loopback: what is left after subtracting the handler is the edge, and what
// a cluster's non-owner adds to its owner's answer is the hop.
func (e *env) serverProbes(ctx context.Context, seed uint64, patS, patL [][]byte, smallText, bulkText []byte, res *result) error {
	p, err := newInproc()
	if err != nil {
		return err
	}
	defer p.srv.Close()
	idS, err := p.register(patS)
	if err != nil {
		return err
	}
	idL, err := p.register(patL)
	if err != nil {
		return err
	}
	var callErr error
	match := func(id string, text []byte) func() {
		return func() {
			if _, _, _, err := p.srv.Match(ctx, id, text); err != nil {
				callErr = err
			}
		}
	}
	res.set("server.match_us_per_req.small", us(timed(21, 500, match(idS, smallText))), "us")

	// Every 64th call on a dense entry is a sampled oracle turn, so the
	// mean of consecutive calls lies above their median by the verify share.
	perMiB := float64(1<<20) / float64(len(bulkText))
	calls := make([]float64, probeServeCalls)
	var sum float64
	for i := range calls {
		t0 := time.Now()
		match(idL, bulkText)()
		calls[i] = float64(time.Since(t0))
		sum += calls[i]
	}
	if callErr != nil {
		return fmt.Errorf("server.Match: %w", callErr)
	}
	sort.Float64s(calls)
	matchP50, mean := time.Duration(calls[len(calls)/2]), time.Duration(sum/float64(len(calls)))
	res.set("server.match_ms_p50_per_mib", ms(matchP50)*perMiB, "ms")
	res.set("server.match_ms_mean_per_mib", ms(mean)*perMiB, "ms")
	res.set("server.verify_share", 1-float64(matchP50)/float64(mean), "ratio")

	smallBody, bulkBody := matchBody(smallText), matchBody(bulkText)
	handle := func(id string, body []byte) func() {
		return func() {
			if rec := p.serve(http.MethodPost, "/v1/dicts/"+id+"/match", "application/json", body); rec.Code != http.StatusOK {
				callErr = fmt.Errorf("status %d: %s", rec.Code, clip(rec.Body.Bytes()))
			}
		}
	}
	handlerSmall := timed(21, 500, handle(idS, smallBody))
	res.set("server.handler_us_per_req.small", us(handlerSmall), "us")
	res.set("server.handler_allocs_per_req.small", testing.AllocsPerRun(500, handle(idS, smallBody)), "count")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handlerBulk := timed(15, 1, handle(idL, bulkBody))
	runtime.ReadMemStats(&after)
	if callErr != nil {
		return fmt.Errorf("server handler: %w", callErr)
	}
	res.set("server.framing_ms_per_mib", ms(handlerBulk-matchP50)*perMiB, "ms")
	res.set("server.handler_alloc_bytes_per_mib", float64(after.TotalAlloc-before.TotalAlloc)/15*perMiB, "B")

	// The same small requests against a real child over one connection.
	e.workload = "probe"
	in, err := smallInputs(seed, "")
	if err != nil {
		return err
	}
	d, err := e.deploy(1, in.dicts, false)
	if err != nil {
		return err
	}
	pool := in.pool(d)
	c := newConn()
	defer c.close()
	t := tallySamples(closedLoop([]*conn{c}, probeEdgeWindow, func(i int) *request { return pool[i%len(pool)] }, false))
	res.count(t)
	if err := d.teardown(); err != nil {
		return err
	}
	loop, _ := percentile(t.latencies, 50)
	res.set("matchd.edge_us_per_req", loop*1000-us(handlerSmall), "us")

	// And against a 3-node cluster: to the dictionary's primary owner, then
	// through the one node that owns no replica. The difference is the hop.
	cl, err := e.deploy(3, in.dicts, false)
	if err != nil {
		return err
	}
	var p50 [2]float64
	for i, base := range []string{cl.owner.base, cl.entry.base} {
		url := base + "/v1/dicts/" + cl.ids[0] + "/match"
		t := tallySamples(closedLoop([]*conn{c}, probeEdgeWindow, func(i int) *request {
			q := *pool[i%len(pool)]
			q.url = url
			return &q
		}, false))
		res.count(t)
		p50[i], _ = percentile(t.latencies, 50)
	}
	if err := cl.teardown(); err != nil {
		return err
	}
	res.set("cluster.hop_us", (p50[1]-p50[0])*1000, "us")
	return nil
}

// discardEvents is a stream.MatchSink that drops every event.
type discardEvents struct{}

func (discardEvents) MatchEvent(stream.MatchEvent) error { return nil }

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
	"repro/internal/textgen"
)

// streamLines posts body to a /match/stream URL and returns the raw event
// lines and the decoded trailer (summary or error).
func streamLines(t *testing.T, url string, body []byte) ([]string, ndLine) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, out)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty NDJSON stream")
	}
	var trailer ndLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	if trailer.Summary == nil && trailer.Error == "" {
		t.Fatalf("last line %q is neither summary nor error", lines[len(lines)-1])
	}
	return lines[:len(lines)-1], trailer
}

// eventLines renders the oracle's M[] as the NDJSON the stream must carry.
func eventLines(want []core.Match) []string {
	var out []string
	for i, m := range want {
		if m.Length > 0 {
			out = append(out, fmt.Sprintf(`{"pos":%d,"pattern":%d,"length":%d}`, i, m.PatternID, m.Length))
		}
	}
	return out
}

func sameLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAppendEventMatchesPrintf: the shared encoder writes the line the two
// fmt.Fprintf call sites it replaced wrote.
func TestAppendEventMatchesPrintf(t *testing.T) {
	for _, c := range []struct {
		pos     int64
		pattern int32
		length  int32
	}{{0, 0, 1}, {7, 3, 12}, {1<<40 + 5, 1<<31 - 1, 1<<31 - 1}, {-1, -1, 0}} {
		want := fmt.Sprintf(`{"pos":%d,"pattern":%d,"length":%d}`+"\n", c.pos, c.pattern, c.length)
		if got := string(appendEvent([]byte("x"), c.pos, c.pattern, c.length)); got != "x"+want {
			t.Fatalf("appendEvent = %q, want %q appended", got, want)
		}
	}
}

// TestStreamDenseMatchesTree: the same text streamed to a dense entry and to
// a -dense=off server yields identical event lines, at a small segment and
// at the default, and each summary names the engine that served it. Dense
// streams count in the dense section of /metrics like buffered requests,
// and stream 1, a canary turn, gets the reply a stream off a turn gets:
// the same lines and the same summary, maxResident included.
func TestStreamDenseMatchesTree(t *testing.T) {
	text, patterns, strs := densePatternStrings(t, 91)
	m := pram.NewSequential()
	want, _ := core.Preprocess(m, patterns, core.Options{Seed: 7}).MatchLasVegas(m, text)
	wantLines := eventLines(want)
	if len(wantLines) == 0 {
		t.Fatal("degenerate workload: no matches")
	}

	got := map[string][]string{}
	var turn *streamSummary
	for _, mode := range []string{DenseOn, DenseOff} {
		srv, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 1, DenseMode: mode})
		id := createDict(t, base, strs...)
		for _, query := range []string{"?segment=1024", ""} {
			lines, trailer := streamLines(t, base+"/v1/dicts/"+id+"/match/stream"+query, text)
			if trailer.Summary == nil {
				t.Fatalf("%s%s: error trailer %q", mode, query, trailer.Error)
			}
			if !sameLines(lines, wantLines) {
				t.Fatalf("%s%s: %d event lines, oracle has %d (or they differ)", mode, query, len(lines), len(wantLines))
			}
			got[mode+query] = lines
			sum := trailer.Summary
			if turn == nil {
				turn = sum // stream 1 of the dense entry
			}
			if sum.N != int64(len(text)) || sum.Events != int64(len(wantLines)) || sum.Work <= 0 {
				t.Fatalf("%s%s: summary %+v", mode, query, sum)
			}
			switch mode {
			case DenseOn:
				if sum.Engine != engineDense || sum.Rounds != 1 || sum.Work != sum.N || sum.Depth != sum.N {
					t.Fatalf("dense%s: summary %+v, want engine dense, 1 round, work = depth = bytes scanned", query, sum)
				}
				// An unsampled dense stream keeps one segment resident, no halo.
				if query == "" && sum.MaxResident > len(text) {
					t.Fatalf("dense: maxResident %d exceeds the text", sum.MaxResident)
				}
			case DenseOff:
				if sum.Engine != engineTree {
					t.Fatalf("off%s: engine %q", query, sum.Engine)
				}
			}
		}
		if mode == DenseOn {
			again, trailer := streamLines(t, base+"/v1/dicts/"+id+"/match/stream?segment=1024", text)
			if !sameLines(again, got[mode+"?segment=1024"]) || trailer.Summary == nil || *trailer.Summary != *turn {
				t.Fatalf("stream off a turn: %d lines, summary %+v; the canary turn had %d lines, summary %+v",
					len(again), trailer.Summary, len(got[mode+"?segment=1024"]), turn)
			}
		}
		d := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter()).Dense
		switch mode {
		case DenseOn:
			// Stream 1 was the entry's first dense request: a canary turn.
			if d.Served != 3 || d.VerifyPass != 1 || d.VerifyFail != 0 || d.Fallback != 0 {
				t.Fatalf("dense counters after two dense streams: %+v", d)
			}
		case DenseOff:
			if d.Served != 0 || d.Fallback != 0 {
				t.Fatalf("dense counters with dense off: %+v", d)
			}
		}
		if err := shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	if !sameLines(got[DenseOn+"?segment=1024"], got[DenseOff+"?segment=1024"]) || !sameLines(got[DenseOn], got[DenseOff]) {
		t.Fatal("dense and tree streams differ")
	}
}

// registerWithAutomaton publishes patterns directly through Registry.Insert
// with aut (nil = none) as the entry's automaton — no compile runs, so a
// test can plant any automaton, a wrong one included.
func registerWithAutomaton(srv *Server, patterns [][]byte, aut *dense.Automaton) *Entry {
	e, _ := srv.Registry().Insert("", patterns, core.Options{}, aut, "preprocess", "", 0)
	return e
}

// TestStreamDenseVerifyDivergence is TestDenseVerifyDivergence for streams:
// a wrong automaton fails its certificate on the first stream, before
// anything is written; the table is recompiled and certified, and the
// stream is answered from it — ahocorasick's events, engine "dense", the
// request's canary turn passed. The failure is counted and logged, and the
// second stream serves the repaired table too.
func TestStreamDenseVerifyDivergence(t *testing.T) {
	var logBuf syncBuffer
	srv, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOn, Log: log.New(&logBuf, "", 0),
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	patterns := [][]byte{[]byte("abc"), []byte("bcd")}
	wrong, err := dense.Compile([][]byte{[]byte("zab"), []byte("cdx")}, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := registerWithAutomaton(srv, patterns, wrong)

	text := []byte(strings.Repeat("xabcdxzabcdx", 400))
	var want []string
	for _, h := range acHits(patterns, text) {
		want = append(want, fmt.Sprintf(`{"pos":%d,"pattern":%d,"length":%d}`, h.Pos, h.Pattern, h.Length))
	}
	for i := 1; i <= 2; i++ {
		lines, trailer := streamLines(t, base+"/v1/dicts/"+e.ID+"/match/stream?segment=1024", text)
		if trailer.Summary == nil || trailer.Summary.Engine != engineDense || !sameLines(lines, want) {
			t.Fatalf("stream %d: %d lines (ahocorasick has %d), trailer %+v — want the repaired table's dense answer", i, len(lines), len(want), trailer)
		}
	}
	snap := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter())
	if d := snap.Dense; d.VerifyFail != 0 || d.VerifyPass != 1 || d.Served != 2 || d.CertifyFail != 1 || d.Certified != 1 || d.Compiles != 1 {
		t.Fatalf("dense counters after a repair and two streams: %+v", d)
	}
	if m, c := snap.PRAM["match"], snap.PRAM["check"]; m.Work != 2*int64(len(text)) || c.Ops != 0 {
		t.Fatalf("two streams charged match=%+v check=%+v, want the %d bytes scanned twice only", m, c, len(text))
	}
	if n := strings.Count(logBuf.String(), "failed its certificate"); n != 1 {
		t.Fatalf("certificate failure logged %d times, want once; log: %q", n, logBuf.String())
	}
}

// syncBuffer is a log sink safe to read while the server writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestStreamDenseServesDegradedEntry: an entry whose tree walk has tripped
// the breaker keeps streaming from the automaton, and the sampled oracle
// turn still verifies it — the reference has no Las Vegas state to degrade.
// (With dense off the same entry's stream ends in an error trailer.)
func TestStreamDenseServesDegradedEntry(t *testing.T) {
	for _, mode := range []string{DenseOn, DenseOff} {
		srv, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 1, DenseMode: mode})
		id := createDict(t, base, "abra", "cad")
		e, ok := srv.Registry().Get(id)
		if !ok {
			t.Fatal("entry missing")
		}
		e.degraded.Store(true)
		lines, trailer := streamLines(t, base+"/v1/dicts/"+id+"/match/stream", []byte("abracadabra"))
		switch mode {
		case DenseOn:
			if trailer.Summary == nil || trailer.Summary.Engine != engineDense || len(lines) != 3 {
				t.Fatalf("degraded entry, dense on: %d events, trailer %+v", len(lines), trailer)
			}
			d := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter()).Dense
			if d.Served != 1 || d.VerifyPass != 1 || d.VerifyFail != 0 {
				t.Fatalf("dense counters: %+v, want the first stream verified", d)
			}
		case DenseOff:
			if trailer.Error == "" || len(lines) != 0 {
				t.Fatalf("degraded entry, dense off: %d events, trailer %+v — want an error trailer", len(lines), trailer)
			}
		}
		if err := shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

// discardResponse is an http.ResponseWriter that drops the body, so a
// handler's own allocations can be measured.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestStreamDenseHandlerAllocation: an unsampled dense stream of a 128 KiB
// body allocates less than 1 MiB in the handler — the segment buffer grown
// to the body, the response buffer and the cursor's ring; no per-window
// match array, no up-front segment buffers (4.4 MB with those).
func TestStreamDenseHandlerAllocation(t *testing.T) {
	srv, err := New(Config{Procs: 1, DenseMode: DenseOn, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	text, patterns, _ := densePatternStrings(t, 91)
	text = append(text, text...) // 128 KiB
	aut, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := registerWithAutomaton(srv, patterns, aut)
	h := srv.Handler()
	serve := func() {
		req, err := http.NewRequest("POST", "/v1/dicts/"+e.ID+"/match/stream", bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		h.ServeHTTP(&discardResponse{h: http.Header{}}, req)
	}
	serve() // the entry's first dense request takes the oracle turn
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if served := srv.Metrics().denseServed.Load(); served != runs+1 {
		t.Fatalf("dense.served = %d, want %d", served, runs+1)
	}
	t.Logf("per-stream allocation: %d bytes", (after.TotalAlloc-before.TotalAlloc)/runs)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<20 {
		t.Fatalf("a dense stream of %d bytes allocated %d bytes, want < 1 MiB", len(text), per)
	}
}

// TestStreamRouteAllocation pins what one unsampled /match/stream request
// allocates at the stream workload's shape — a raw 128 KiB body planted every
// 512 bytes over 128 patterns of 12 bytes — to the measured 527 KB: the
// segment buffers the body is read into (stream.growTo) are nearly all of
// it. The 32 KiB NDJSON writer comes from a pool and is not among them.
func TestStreamRouteAllocation(t *testing.T) {
	const ceiling = 16 << 10
	srv, err := New(Config{Procs: 1, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	text, patterns := textgen.New(11).PlantedDictionary(128<<10, 128, 12, 512, 26)
	strs := make([]string, len(patterns))
	for i, p := range patterns {
		strs[i] = string(p)
	}
	id := createVia(t, srv, strs).ID
	h, path := srv.Handler(), "/v1/dicts/"+id+"/match/stream"
	serve := func() {
		h.ServeHTTP(&discardResponse{h: http.Header{}}, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(text)))
	}
	for i := 0; i < 4; i++ { // request 1 builds the oracle and takes its turn
		serve()
	}
	// Requests 5–20, all between sampled turns; the median, as in
	// TestMatchRouteAllocation.
	allocs := make([]uint64, 16)
	for i := range allocs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		allocs[i] = after.TotalAlloc - before.TotalAlloc
	}
	if served := srv.Metrics().denseServed.Load(); served != 20 {
		t.Fatalf("dense.served = %d, want 20", served)
	}
	slices.Sort(allocs)
	median := allocs[len(allocs)/2]
	t.Logf("per-request allocation: %d bytes (median of %d)", median, len(allocs))
	if median > ceiling && !raceEnabled() {
		t.Fatalf("a /match/stream over %d bytes allocated %d bytes (median of %d), ceiling %d", len(text), median, len(allocs), ceiling)
	}
}

// BenchmarkStreamRoute serves /match/stream requests of the stream
// workload's shape — raw 128 KiB bodies, planted every 512 bytes, round
// robin over eight dictionaries of 128 patterns of 8–16 bytes, σ 26 —
// through Server.Handler(), and reports the garbage-collection cycles per
// request from runtime/metrics next to the time: the GC paces to the live
// heap, which the resident dictionaries set.
func BenchmarkStreamRoute(b *testing.B) {
	srv, err := New(Config{Procs: 1, Log: quietLogger()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var paths []string
	var texts [][]byte
	for k := uint64(0); k < 8; k++ {
		gen := textgen.New(50 + k)
		pats := gen.Dictionary(128, 8, 16, 26)
		text := gen.Uniform(128<<10, 26)
		for pos := 0; pos+16 <= len(text); pos += 512 {
			copy(text[pos:], pats[(pos/512)%len(pats)])
		}
		strs := make([]string, len(pats))
		for i, p := range pats {
			strs[i] = string(p)
		}
		body, _ := json.Marshal(map[string]any{"patterns": strs})
		rec := serveRoute(srv.Handler(), http.MethodPost, "/v1/dicts", body)
		var created dictCreateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || rec.Code != http.StatusCreated {
			b.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
		paths = append(paths, "/v1/dicts/"+created.ID+"/match/stream")
		texts = append(texts, text)
	}
	h := srv.Handler()
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc)
	before := gc[0].Value.Uint64()
	b.SetBytes(128 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(paths)
		h.ServeHTTP(&discardResponse{h: http.Header{}}, httptest.NewRequest(http.MethodPost, paths[k], bytes.NewReader(texts[k])))
	}
	b.StopTimer()
	metrics.Read(gc)
	b.ReportMetric(float64(gc[0].Value.Uint64()-before)/float64(b.N), "gc/op")
}

package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ahocorasick"
	"repro/internal/dense"
	"repro/internal/stream"
	"repro/internal/textgen"
)

// serveRoute sends one request through h and returns the reply.
func serveRoute(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// b64Body is the request shape every shipped client sends.
func b64Body(text []byte) []byte {
	return []byte(`{"textB64":"` + base64.StdEncoding.EncodeToString(text) + `"}`)
}

// encodeMatchResponse is what writeJSON(matchResponse) put on the wire.
func encodeMatchResponse(t testing.TB, resp matchResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fireMatch posts one match request and returns status and body.
func fireMatch(t *testing.T, base, id string, text []byte) (int, []byte) {
	t.Helper()
	return postJSON(t, base+"/v1/dicts/"+id+"/match", map[string]any{"text": string(text)})
}

// TestMatchConcurrentOracleCadence: 64 concurrent 64 B matches against a
// dense entry are each answered as the same request sent alone would be, and
// are counted and oracle-sampled as dense requests exactly once each —
// request 1 and request 64 take the oracle's turns, whatever order the
// concurrent requests arrive in.
func TestMatchConcurrentOracleCadence(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 4, DenseMode: DenseOn})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	text, _, strs := densePatternStrings(t, 4242)
	id := createDict(t, base, strs...)

	got := make([][]byte, verifySampleEvery)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, body := fireMatch(t, base, id, text[i*64:i*64+64])
			if st != http.StatusOK {
				t.Errorf("match %d: %d %s", i, st, body)
			}
			got[i] = body
		}(i)
	}
	wg.Wait()
	snap := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter())
	if d := snap.Dense; d.Served != verifySampleEvery || d.VerifyPass != 2 || d.VerifyFail != 0 {
		t.Fatalf("dense counters: %+v, want %d served and oracle turns on request 1 and %d", d, verifySampleEvery, verifySampleEvery)
	}
	for i := range got {
		if !bytes.Contains(got[i], []byte(`"engine":"dense"`)) {
			t.Fatalf("request %d not served by the dense engine: %s", i, got[i])
		}
		if _, want := fireMatch(t, base, id, text[i*64:i*64+64]); !bytes.Equal(got[i], want) {
			t.Fatalf("request %d: concurrent %s != sequential %s", i, got[i], want)
		}
	}
}

// TestOverLimitBodyIs413: a body over the limit answers 413 on every
// buffered route, including one whose JSON value ends inside the limit and
// whose overflow is whitespace.
func TestOverLimitBodyIs413(t *testing.T) {
	srv, err := New(Config{Procs: 1, MaxBodyBytes: 4096, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	if rec := serveRoute(h, http.MethodPost, "/v1/dicts", []byte(`{"patterns":["ab","ba"]}`)); rec.Code != http.StatusCreated {
		t.Fatalf("dict create: %d %s", rec.Code, rec.Body)
	}
	pad := bytes.Repeat([]byte(" "), 8<<10)
	for _, tc := range []struct{ path, body string }{
		{"/v1/dicts/d1/match", `{"text":"abba"}`},
		{"/v1/dicts/d1/match", `{"textB64":"YWJiYQ=="}`},
		{"/v1/dicts/d1/parse", `{"text":"abba"}`},
		{"/v1/compress", `{"text":"abba"}`},
		{"/v1/dicts", `{"patterns":["ab"]}`},
	} {
		rec := serveRoute(h, http.MethodPost, tc.path, append([]byte(tc.body), pad...))
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "body exceeds 4096 bytes") {
			t.Errorf("%s %s + %d spaces: %d %s, want 413", tc.path, tc.body, len(pad), rec.Code, rec.Body)
		}
	}
}

// TestMatchResponseEncoding: the append encoder writes what encoding/json
// writes for the same reply — empty hits, every engine label, positions
// past 2³¹.
func TestMatchResponseEncoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	for trial := 0; trial < 200; trial++ {
		engine := []string{engineDense, engineTree}[trial%2]
		var evs []stream.MatchEvent
		pos := int64(0)
		if trial%2 == 1 {
			pos = 1<<31 + rng.Int64N(1<<40)
		}
		for k := rng.IntN(40) * (trial % 5); k > 0; k-- {
			pos += 1 + rng.Int64N(1000)
			evs = append(evs, stream.MatchEvent{Pos: pos, PatternID: rng.Int32N(1 << 20), Length: 1 + rng.Int32N(1<<16)})
		}
		n, attempts := int(pos)+rng.IntN(64), 1+rng.IntN(6)
		resp := matchResponse{N: n, Attempts: attempts, Matched: len(evs), Engine: engine, Hits: []matchHit{}}
		for _, ev := range evs {
			resp.Hits = append(resp.Hits, matchHit{Pos: int(ev.Pos), Pattern: int(ev.PatternID), Length: int(ev.Length)})
		}
		want := encodeMatchResponse(t, resp)
		if got := appendMatchResponse(nil, n, attempts, engine, evs); !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// TestMatchShardingExact: /match answers exactly what the reference
// automaton finds, byte for byte as encoding/json would write it, on every
// engine — and from a planted wrong table, once it is repaired — with one
// worker and with four, on a text long enough to be cut into four shards,
// with occurrences straddling every cut, each request a canary turn. The
// fast request body and the encoding/json one get the same reply.
func TestMatchShardingExact(t *testing.T) {
	gen := textgen.New(2929)
	text := gen.Uniform(3*minShardLen+4099, 4)
	shards := (len(text) + minShardLen - 1) / minShardLen
	per := (len(text) + shards - 1) / shards
	seen := map[string]bool{}
	var patterns [][]byte
	add := func(p []byte) {
		if !seen[string(p)] {
			seen[string(p)] = true
			patterns = append(patterns, p)
		}
	}
	for cut := per; cut < len(text); cut += per {
		for _, k := range []int{1, 7, 23} { // starts 1, 7 and 23 bytes left of the cut
			add(text[cut-k : cut-k+24])
		}
	}
	for i := 0; i < 64; i++ {
		l := 2 + gen.Uniform(1, 12)[0] - 'a'
		at := int(gen.Uniform(1, 26)[0]-'a') * (len(text) / 27)
		add(text[at : at+int(l)])
	}
	ac := ahocorasick.New(patterns)
	want := matchResponse{N: len(text), Attempts: 1, Hits: []matchHit{}}
	for i, id := range ac.Match(text) {
		if id >= 0 {
			want.Hits = append(want.Hits, matchHit{Pos: i, Pattern: int(id), Length: int(ac.PatternLen(id))})
		}
	}
	want.Matched = len(want.Hits)
	for cut := per; cut < len(text); cut += per {
		if id := ac.Match(text[cut-23 : cut+1])[0]; id < 0 {
			t.Fatalf("no occurrence planted across the cut at %d", cut)
		}
	}

	good, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := dense.Compile(patterns[:len(patterns)/2], dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	textBody, err := json.Marshal(map[string]string{"text": string(text)})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		for _, tc := range []struct {
			name, engine string
			aut          *dense.Automaton
		}{{"dense", engineDense, good}, {"tree", engineTree, nil}, {"repaired", engineDense, wrong}} {
			t.Run(fmt.Sprintf("procs%d/%s", procs, tc.name), func(t *testing.T) {
				srv, err := New(Config{Procs: procs, DenseMode: DenseOn, Log: quietLogger()})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				e := registerWithAutomaton(srv, patterns, tc.aut)
				want.Engine = tc.engine
				wantBody := encodeMatchResponse(t, want)
				for _, body := range [][]byte{b64Body(text), textBody} {
					// Request 1 is a canary turn.
					e.denseReqs.Store(0)
					rec := serveRoute(srv.Handler(), http.MethodPost, "/v1/dicts/"+e.ID+"/match", body)
					if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
						t.Fatalf("%d %q: %s", rec.Code, rec.Header().Get("Content-Type"), clip(rec.Body.Bytes()))
					}
					if !bytes.Equal(rec.Body.Bytes(), wantBody) {
						t.Fatalf("reply differs from the reference's encoding:\n got %s\nwant %s", clip(rec.Body.Bytes()), clip(wantBody))
					}
				}
			})
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 300 {
		return append(b[:300:300], "…"...)
	}
	return b
}

// TestMatchRouteAllocation: a warmed dense /match over a 256 KiB text
// allocates no per-position or per-body storage — its body, text, events,
// reply and the scan kernel's 32 KiB of hit lists live in pooled buffers,
// leaving about 1 KB, most of it the cursor's ring — and a request larger
// than the pools' cap leaves nothing above the cap behind in them.
func TestMatchRouteAllocation(t *testing.T) {
	const ceiling = 4 << 10
	srv, err := New(Config{Procs: 1, DenseMode: DenseOn, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gen := textgen.New(31)
	text, patterns := gen.PlantedDictionary(256<<10, 256, 24, 509, 26)
	aut, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := registerWithAutomaton(srv, patterns, aut)
	h, path, body := srv.Handler(), "/v1/dicts/"+e.ID+"/match", b64Body(text)
	for i := 0; i < 4; i++ { // request 1 builds the oracle and takes its turn
		rec := serveRoute(h, http.MethodPost, path, body)
		var mr matchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil || rec.Code != http.StatusOK || mr.Matched < len(text)/600 {
			t.Fatalf("warm-up: %d %s", rec.Code, clip(rec.Body.Bytes()))
		}
	}
	// Requests 5–20, all between sampled turns. The median, because a
	// goroutine that moves to another P between requests misses the pooled
	// buffers its last P keeps private, and pays for them once.
	w := &discardResponse{h: http.Header{}}
	allocs := make([]uint64, 16)
	for i := range allocs {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, r)
		runtime.ReadMemStats(&after)
		allocs[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(allocs)
	// The race detector's sync.Pool drops a quarter of what is put back, so
	// only a plain build can hold the pools to their word.
	if median := allocs[len(allocs)/2]; median > ceiling && !raceEnabled() {
		t.Fatalf("a dense /match over %d bytes allocated %d bytes (median of %d), ceiling %d", len(text), median, len(allocs), ceiling)
	}

	big := bytes.Repeat([]byte("abcdefgh"), 6<<20/8)
	if rec := serveRoute(h, http.MethodPost, path, b64Body(big)); rec.Code != http.StatusOK {
		t.Fatalf("8 MiB body: %d %s", rec.Code, clip(rec.Body.Bytes()))
	}
	for b, ok := bytePool.p.Get().(*[]byte); ok; b, ok = bytePool.p.Get().(*[]byte) {
		if cap(*b) > bytePool.max {
			t.Fatalf("byte pool kept a %d-byte buffer, cap %d", cap(*b), bytePool.max)
		}
	}
	for b, ok := eventPool.p.Get().(*[]stream.MatchEvent); ok; b, ok = eventPool.p.Get().(*[]stream.MatchEvent) {
		if cap(*b) > eventPool.max {
			t.Fatalf("event pool kept %d events, cap %d", cap(*b), eventPool.max)
		}
	}
}

func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/ahocorasick"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/persist"
	"repro/internal/pram"
)

// certWatcher is a ResponseWriter that notes, at every body write, how many
// certificates had passed: an answer written before its table's
// certificate shows up as a write that saw none.
type certWatcher struct {
	h      http.Header
	mt     *Metrics
	body   bytes.Buffer
	writes int
	early  int // writes made while no certificate had passed
}

func (w *certWatcher) Header() http.Header { return w.h }
func (w *certWatcher) WriteHeader(int)     {}
func (w *certWatcher) Write(p []byte) (int, error) {
	w.writes++
	if w.mt.certified.Load() == 0 {
		w.early++
	}
	return w.body.Write(p)
}

// TestCertifiedBeforeFirstAnswer: registration certifies nothing, and on
// every route that reads an automaton the first request certifies it
// before a byte of its answer is written — one certificate per entry,
// however many routes and requests follow.
func TestCertifiedBeforeFirstAnswer(t *testing.T) {
	text := []byte(strings.Repeat("abracadabra xyz cad ", 200))
	var container bytes.Buffer
	if err := lz.EncodeStream(&container, lz.Compress(pram.NewSequential(), text)); err != nil {
		t.Fatal(err)
	}
	buffered, err := json.Marshal(map[string]string{"dataB64": base64.StdEncoding.EncodeToString(container.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct {
		name, path string
		body       []byte
		engine     string
	}{
		{"match", "/match", b64Body(text), `"engine":"dense"`},
		{"stream", "/match/stream?segment=1024", text, `"engine":"dense"`},
		{"compressed", "/match/compressed", container.Bytes(), `"engine":"`},
		{"buffered", "/match/compressed/buffered", buffered, `"engine":"`},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			srv, err := New(Config{Procs: 2, Log: quietLogger()})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			id := createVia(t, srv, []string{"abra", "cad", "xyz", "abracadabra"}).ID
			mt := srv.Metrics()
			if n := mt.certified.Load(); n != 0 {
				t.Fatalf("registration ran %d certificates, want none", n)
			}
			for i := 0; i < 3; i++ {
				w := &certWatcher{h: http.Header{}, mt: mt}
				srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/dicts/"+id+rt.path, bytes.NewReader(rt.body)))
				if w.writes == 0 || w.early != 0 || !bytes.Contains(w.body.Bytes(), []byte(rt.engine)) {
					t.Fatalf("request %d: %d writes, %d before the certificate; reply %.200s", i+1, w.writes, w.early, w.body.Bytes())
				}
			}
			if n, f := mt.certified.Load(), mt.certifyFail.Load(); n != 1 || f != 0 {
				t.Fatalf("certified = %d, certifyFail = %d after three requests, want 1 and 0", n, f)
			}
		})
	}

	// In process, through Server.Match.
	srv, err := New(Config{Procs: 1, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id := createVia(t, srv, []string{"abra", "cad"}).ID
	if _, _, engine, err := srv.Match(context.Background(), id, text); err != nil || engine != engineDense || srv.Metrics().certified.Load() != 1 {
		t.Fatalf("Server.Match: engine %q, err %v, certified %d", engine, err, srv.Metrics().certified.Load())
	}
}

// denseRoute is one of the four routes that read an entry's automaton, with
// a request body asking it about one text.
type denseRoute struct {
	name, path string
	body       []byte
}

// denseRoutes returns the four dense routes, each asked about text: /match,
// /match/stream, and the two compressed routes with text packed as LZ1R1.
func denseRoutes(t testing.TB, text []byte) []denseRoute {
	t.Helper()
	var container bytes.Buffer
	if err := lz.EncodeStream(&container, lz.Compress(pram.NewSequential(), text)); err != nil {
		t.Fatal(err)
	}
	buffered, err := json.Marshal(map[string]string{"dataB64": base64.StdEncoding.EncodeToString(container.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	return []denseRoute{
		{"match", "/match", b64Body(text)},
		{"stream", "/match/stream?segment=1024", text},
		{"compressed", "/match/compressed", container.Bytes()},
		{"buffered", "/match/compressed/buffered", buffered},
	}
}

// routeReply is what a dense route answered: its status, its hits, the
// engine it named and its error — the body's, or the stream's trailer.
type routeReply struct {
	status int
	hits   []matchHit
	engine string
	err    string
}

// ask serves one request on the route through h, for entry id.
func (rt denseRoute) ask(t testing.TB, h http.Handler, id string) routeReply {
	t.Helper()
	rec := serveRoute(h, http.MethodPost, "/v1/dicts/"+id+rt.path, rt.body)
	reply := routeReply{status: rec.Code, hits: []matchHit{}}
	for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
		var l struct {
			Pos     *int       `json:"pos"`
			Pattern int        `json:"pattern"`
			Length  int        `json:"length"`
			Engine  string     `json:"engine"`
			Hits    []matchHit `json:"hits"`
			Summary *struct {
				Engine string `json:"engine"`
			} `json:"summary"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("%s: bad reply line %q: %v", rt.name, line, err)
		}
		if l.Pos != nil {
			reply.hits = append(reply.hits, matchHit{Pos: *l.Pos, Pattern: l.Pattern, Length: l.Length})
		}
		reply.hits = append(reply.hits, l.Hits...)
		if l.Summary != nil {
			l.Engine = l.Summary.Engine
		}
		reply.engine += l.Engine
		reply.err += l.Error
	}
	return reply
}

// answersDense reports whether a reply is a dense route's good answer to a
// text whose matches are want: 200, want's hits, and an automaton's engine
// label — "dense", or "czsearch" for the compressed scanner's token mode.
func (r routeReply) answersDense(want []matchHit) bool {
	return r.status == http.StatusOK && r.err == "" && slices.Equal(r.hits, want) &&
		(r.engine == engineDense || r.engine == engineCz)
}

// acHits is ahocorasick's answer to text: the longest pattern at every
// position with a match.
func acHits(patterns [][]byte, text []byte) []matchHit {
	ac := ahocorasick.New(patterns)
	hits := []matchHit{}
	for i, id := range ac.Match(text) {
		if id >= 0 {
			hits = append(hits, matchHit{Pos: i, Pattern: int(id), Length: int(ac.PatternLen(id))})
		}
	}
	return hits
}

// TestWarmStartWrongDenseRepaired: a bundle whose DENSE section has an
// in-range but wrong transition passes every CRC and Restore's range
// checks, so a warm start loads it without certifying anything. On each
// dense route, the first request fails its certificate, recompiles the
// table from the patterns, certifies the recompile and answers from it:
// ahocorasick's hits, from an automaton's engine, logged once. The bundle is
// rewritten with the repaired table, so the next boot loads it and
// certifies it on the first try, with no compile.
func TestWarmStartWrongDenseRepaired(t *testing.T) {
	patterns := [][]byte{[]byte("abra"), []byte("cad"), []byte("bra")}
	good, err := dense.Compile(patterns, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := good.Encode()
	at := 16 + 512 + 4*(1*good.Stats().Alphabet+2) // state 1's transition on class 2
	old := binary.LittleEndian.Uint32(payload[at:])
	binary.LittleEndian.PutUint32(payload[at:], (old+1)%uint32(good.NumStates()))
	wrong, err := dense.Restore(payload, patterns)
	if err != nil {
		t.Fatalf("Restore of an in-range target: %v", err)
	}
	opts := core.Options{Seed: 1}
	text := []byte(strings.Repeat("xxabracadabracadxx", 64))
	want := acHits(patterns, text)

	for _, rt := range denseRoutes(t, text) {
		t.Run(rt.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := persist.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.PutBytes(persist.KeyFor(patterns, opts), (&persist.Bundle{Patterns: patterns, Options: opts, Automaton: wrong}).Encode()); err != nil {
				t.Fatal(err)
			}

			var logBuf syncBuffer
			srv, err := New(Config{Procs: 1, CacheDir: dir, Log: log.New(&logBuf, "", 0)})
			if err != nil {
				t.Fatal(err)
			}
			infos := srv.Registry().Infos()
			mt := srv.Metrics()
			if len(infos) != 1 || !infos[0].Dense || mt.denseLoads.Load() != 1 || mt.certified.Load()+mt.certifyFail.Load() != 0 {
				t.Fatalf("warm start: %+v, loads %d, certificates %d", infos, mt.denseLoads.Load(), mt.certified.Load()+mt.certifyFail.Load())
			}
			for i := 1; i <= 2; i++ {
				if reply := rt.ask(t, srv.Handler(), infos[0].ID); !reply.answersDense(want) {
					t.Fatalf("request %d: %+v, want ahocorasick's %d hits from the repaired table", i, reply, len(want))
				}
			}
			if f, c, n := mt.certifyFail.Load(), mt.certified.Load(), mt.denseCompiles.Load(); f != 1 || c != 1 || n != 1 {
				t.Fatalf("certifyFail = %d, certified = %d, compiles = %d, want one of each", f, c, n)
			}
			if n := strings.Count(logBuf.String(), "failed its certificate"); n != 1 {
				t.Fatalf("certificate failure logged %d times, want once; log: %q", n, logBuf.String())
			}
			srv.Close()

			again, err := New(Config{Procs: 1, CacheDir: dir, Log: quietLogger()})
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			mt = again.Metrics()
			if reply := rt.ask(t, again.Handler(), again.Registry().Infos()[0].ID); !reply.answersDense(want) {
				t.Fatalf("next boot: %+v", reply)
			}
			if l, n, c, f := mt.denseLoads.Load(), mt.denseCompiles.Load(), mt.certified.Load(), mt.certifyFail.Load(); l != 1 || n != 0 || c != 1 || f != 0 {
				t.Fatalf("next boot: loads %d, compiles %d, certified %d, certifyFail %d — want the rewritten bundle certified first try", l, n, c, f)
			}
		})
	}
}

// TestCompressedUncertifiedFailsEveryRequest: when the repair fails too —
// here the server's table budget refuses the recompile — the entry can
// serve nothing, and every request on every dense route fails loudly with
// a 500 whose body is the error (on the streams, their only NDJSON line).
// No route serves another engine's answer, and the failure is counted and
// logged once.
func TestCompressedUncertifiedFailsEveryRequest(t *testing.T) {
	var logBuf syncBuffer
	srv, err := New(Config{Procs: 1, DenseMaxTableBytes: 64, Log: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	patterns := [][]byte{[]byte("abc"), []byte("bcd")}
	wrong, err := dense.Compile([][]byte{[]byte("zzz"), []byte("qqq")}, dense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := registerWithAutomaton(srv, patterns, wrong)
	text := []byte(strings.Repeat("xabcdx", 50))
	for _, rt := range denseRoutes(t, text) {
		for i := 1; i <= 2; i++ {
			reply := rt.ask(t, srv.Handler(), e.ID)
			if reply.status != http.StatusInternalServerError || !strings.Contains(reply.err, "failed its certificate") || len(reply.hits) != 0 || reply.engine != "" {
				t.Fatalf("%s request %d: %+v, want a 500 naming the certificate", rt.name, i, reply)
			}
		}
	}
	if _, _, _, err := srv.Match(context.Background(), e.ID, text); !errors.Is(err, errUncertified) {
		t.Fatalf("Server.Match: err = %v, want errUncertified", err)
	}
	mt := srv.Metrics()
	if f, c, r, served := mt.certifyFail.Load(), mt.certified.Load(), mt.denseCompileFails.Load(), mt.denseServed.Load(); f != 1 || c != 0 || r != 1 || served != 0 {
		t.Fatalf("certifyFail = %d, certified = %d, compileFails = %d, served = %d, want 1/0/1/0", f, c, r, served)
	}
	if n := strings.Count(logBuf.String(), "every request on it now fails"); n != 1 {
		t.Fatalf("failed repair logged %d times, want once; log: %q", n, logBuf.String())
	}
}

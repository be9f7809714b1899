package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

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

// TestWarmStartWrongDenseServesReference: a bundle whose DENSE section has
// an in-range but wrong transition passes every CRC and Restore's range
// checks, so a warm start loads it without certifying anything. Its
// certificate fails on first use, and from then on every request takes an
// oracle turn and is answered with the reference's events.
func TestWarmStartWrongDenseServesReference(t *testing.T) {
	dir := t.TempDir()
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
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Seed: 1}
	if _, err := store.PutBytes(persist.KeyFor(patterns, opts), (&persist.Bundle{Patterns: patterns, Options: opts, Automaton: wrong}).Encode()); err != nil {
		t.Fatal(err)
	}

	var logBuf syncBuffer
	srv, err := New(Config{Procs: 1, CacheDir: dir, Log: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	infos := srv.Registry().Infos()
	mt := srv.Metrics()
	if len(infos) != 1 || !infos[0].Dense || mt.denseLoads.Load() != 1 || mt.certified.Load()+mt.certifyFail.Load() != 0 {
		t.Fatalf("warm start: %+v, loads %d, certificates %d", infos, mt.denseLoads.Load(), mt.certified.Load()+mt.certifyFail.Load())
	}
	text := []byte("xxabracadabracadxx")
	m := pram.NewSequential()
	want, _ := core.Preprocess(m, patterns, opts).MatchLasVegas(m, text)
	for i := 1; i <= 3; i++ {
		got, _, engine, err := srv.Match(context.Background(), infos[0].ID, text)
		if err != nil || engine != engineReference || !slices.Equal(got, want) {
			t.Fatalf("request %d: engine %q, err %v, matches %v, want the reference's %v", i, engine, err, got, want)
		}
	}
	if f, v := mt.certifyFail.Load(), mt.denseVerifyFail.Load(); f != 1 || v != 3 {
		t.Fatalf("certifyFail = %d, denseVerifyFail = %d, want 1 and 3", f, v)
	}
	if n := strings.Count(logBuf.String(), "failed its certificate"); n != 1 {
		t.Fatalf("certificate failure logged %d times, want once; log: %q", n, logBuf.String())
	}
}

// TestCompressedUncertifiedFailsEveryRequest: after a failed certificate
// the compressed routes take an oracle turn on every request too, and keep
// their divergence answer — a 500 on the buffered route — instead of
// serving the scanner's unverified output between canary turns.
func TestCompressedUncertifiedFailsEveryRequest(t *testing.T) {
	srv, err := New(Config{Procs: 1, Log: quietLogger()})
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
	var container bytes.Buffer
	if err := lz.EncodeStream(&container, lz.Compress(pram.NewSequential(), []byte(strings.Repeat("xabcdx", 50)))); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{"dataB64": base64.StdEncoding.EncodeToString(container.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		rec := serveRoute(srv.Handler(), http.MethodPost, "/v1/dicts/"+e.ID+"/match/compressed/buffered", body)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "oracle") {
			t.Fatalf("request %d: %d %s, want a 500 naming the oracle", i, rec.Code, rec.Body)
		}
	}
	if f, v := srv.Metrics().certifyFail.Load(), srv.Metrics().czVerifyFail.Load(); f != 1 || v != 3 {
		t.Fatalf("certifyFail = %d, czVerifyFail = %d, want 1 and 3", f, v)
	}
}

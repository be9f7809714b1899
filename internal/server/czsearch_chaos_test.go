//go:build chaos

package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"log"
	"net/http"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/lz"
	"repro/internal/textgen"
)

// czChaosBlock is the 64-byte text of the fixture's repeated token: "xyxy"
// and "yx" occur exactly across the boundary between two blocks, so a scan
// that enters a block in the wrong state reports different matches.
var czChaosBlock = []byte("xy" + strings.Repeat("a", 60) + "xy")

// czChaosFixture registers a dictionary and builds a container whose copy
// tokens repeat one (entry state, src, len) key over and over — the memo-hit
// workload the czsearch.cache fault needs (an optimal parse never repeats a
// token, so the poison would have nothing to land on). The repeated token is
// 64 bytes long, which puts the container's mean token length above the
// scanner's cutover: below it the expanded mode would serve, and that has no
// memo to poison.
func czChaosFixture(t *testing.T, base string, reps int) (string, []byte) {
	t.Helper()
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": []string{"yx", "xyxy"}})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	toks := []lz.Token{{Lit: 'x'}, {Lit: 'y'}, {Lit: 'a'}, {Src: 2, Len: 59}, {Src: 0, Len: 2}}
	for i := 0; i < reps; i++ {
		toks = append(toks, lz.Token{Src: 0, Len: 64})
	}
	var buf bytes.Buffer
	if err := lz.EncodeStream(&buf, lz.Compressed{N: 64 * (1 + reps), Tokens: toks}); err != nil {
		t.Fatal(err)
	}
	return created.ID, buf.Bytes()
}

// postCompressedBuffered posts a container to the buffered compressed-match
// endpoint.
func postCompressedBuffered(t *testing.T, base, id string, container []byte) (int, []byte) {
	t.Helper()
	return postJSON(t, base+"/v1/dicts/"+id+"/match/compressed/buffered",
		map[string]string{"dataB64": base64.StdEncoding.EncodeToString(container)})
}

// TestChaosCzPoisonedCacheCaught5xx is the serving half of the czsearch.cache
// story (the package half lives in internal/czsearch): a poisoned memo entry
// makes the scanner's output diverge, the canary's decompress-then-walk
// catches it, and the request fails 500 — never a silently wrong 200. The
// follow-up request on the same entry (same pooled scanner) succeeds with
// oracle-identical output, so one poisoned request cannot wedge the scanner
// pool.
func TestChaosCzPoisonedCacheCaught5xx(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOn,
	})
	id, container := czChaosFixture(t, base, 50)

	// Poison every memo store. Request 1 is always a canary turn.
	plan := installPlan(t, 5, "czsearch.cache:p=1")
	status, body := postCompressedBuffered(t, base, id, container)
	if status != http.StatusInternalServerError {
		t.Fatalf("poisoned request: %d %s, want 500", status, body)
	}
	if !strings.Contains(string(body), "diverged from the canary") {
		t.Fatalf("poisoned request error does not name the divergence: %s", body)
	}
	if firedCount(plan, chaos.CzCache) == 0 {
		t.Fatal("czsearch.cache never fired — the test exercised nothing")
	}
	if n := srv.Metrics().czVerifyFail.Load(); n != 1 {
		t.Fatalf("czVerifyFail = %d, want 1", n)
	}

	// Disarm and replay: the pooled scanner is reset per run, so the second
	// request is clean and byte-identical to decompress-then-match.
	chaos.Install(nil)
	status, body = postCompressedBuffered(t, base, id, container)
	if status != http.StatusOK {
		t.Fatalf("request after poison: %d %s, want 200", status, body)
	}
	var mr matchCompressedResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	want := oracleHits(t, base, id, bytes.Repeat(czChaosBlock, 51))
	if len(mr.Hits) != len(want) {
		t.Fatalf("request after poison: %d hits, oracle has %d", len(mr.Hits), len(want))
	}
	for i, h := range mr.Hits {
		if h != want[i] {
			t.Fatalf("request after poison: hit %d = %+v, oracle %+v", i, h, want[i])
		}
	}
	if mr.Stats.MemoHits == 0 {
		t.Fatal("request after poison took no memo hits — cache disabled instead of cleaned")
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCzTruncateIs5xx: a czsearch.truncate fault mid-stream fails the
// buffered request with a 500 carrying the injected error — never a
// truncated 200 — and the endpoint serves correctly once disarmed.
func TestChaosCzTruncateIs5xx(t *testing.T) {
	_, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOn,
	})
	id, container := czChaosFixture(t, base, 50)

	installPlan(t, 9, "czsearch.truncate:every=20")
	status, body := postCompressedBuffered(t, base, id, container)
	if status != http.StatusInternalServerError {
		t.Fatalf("truncated request: %d %s, want 500", status, body)
	}

	chaos.Install(nil)
	status, body = postCompressedBuffered(t, base, id, container)
	if status != http.StatusOK {
		t.Fatalf("request after truncation: %d %s", status, body)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCanaryDivergenceFailsLoudly: with dense.drop armed, a dense
// cursor loses the match at its text's last byte, and the table stays
// certified —
// a fault in the code around the table. On every dense route, request 1 is
// a canary turn: the walk over the table disagrees, and the request fails
// loudly — a 500 on /match and the buffered compressed route, an error
// trailer and no summary on the streams — counted and logged once. Disarmed,
// the next request is answered exactly. A divergence makes every later
// request on the entry a turn, on every route: with the fault armed across
// requests 1–3 on /match and /match/stream, each fails loudly and none
// answers without the dropped match; disarmed, request 4 is answered and
// checked, and a streamed container too large to keep for its check fails.
func TestChaosCanaryDivergenceFailsLoudly(t *testing.T) {
	patterns := [][]byte{[]byte("qua"), []byte("rtz"), []byte("zz"), []byte("z")}
	text := append(textgen.New(77).Uniform(4096, 26), "quartzz"...)
	want := acHits(patterns, text)
	for _, rt := range denseRoutes(t, text) {
		t.Run(rt.name, func(t *testing.T) {
			var logBuf syncBuffer
			srv, err := New(Config{Procs: 1, Log: log.New(&logBuf, "", 0)})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			id := createVia(t, srv, []string{"qua", "rtz", "zz", "z"}).ID
			plan := installPlan(t, 3, "dense.drop:p=1")
			reply := rt.ask(t, srv.Handler(), id)
			chaos.Install(nil)
			if firedCount(plan, chaos.DenseDrop) == 0 {
				t.Fatal("dense.drop never fired — the test exercised nothing")
			}
			wantStatus := http.StatusInternalServerError
			if strings.Contains(rt.path, "stream") || rt.name == "compressed" {
				wantStatus = http.StatusOK // committed before the scan: the error is the trailer
			}
			if reply.status != wantStatus || !strings.Contains(reply.err, "diverged") || reply.engine != "" {
				t.Fatalf("canary turn under dense.drop: %+v, want status %d and a divergence error", reply, wantStatus)
			}
			mt := srv.Metrics()
			if fails := mt.denseVerifyFail.Load() + mt.czVerifyFail.Load(); fails != 1 {
				t.Fatalf("verifyFail = %d, want 1", fails)
			}
			if n := strings.Count(logBuf.String(), "diverged from the canary"); n != 1 {
				t.Fatalf("divergence logged %d times, want once; log: %q", n, logBuf.String())
			}
			if reply := rt.ask(t, srv.Handler(), id); !reply.answersDense(want) {
				t.Fatalf("request 2, disarmed: %+v", reply)
			}
		})
	}

	t.Run("persisting", func(t *testing.T) {
		srv, err := New(Config{Procs: 1, MaxBodyBytes: 64, Log: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		id := createVia(t, srv, []string{"ab", "b"}).ID
		match := denseRoute{"match", "/match", b64Body([]byte("xab"))}
		stream := denseRoute{"stream", "/match/stream", []byte("xxab")}
		plan := installPlan(t, 3, "dense.drop:p=1")
		for i, rt := range []denseRoute{match, stream, match} {
			if reply := rt.ask(t, srv.Handler(), id); !strings.Contains(reply.err, "diverged") || reply.engine != "" {
				t.Fatalf("request %d (%s) under dense.drop: %+v, want a divergence error", i+1, rt.name, reply)
			}
		}
		chaos.Install(nil)
		if n := firedCount(plan, chaos.DenseDrop); n != 3 {
			t.Fatalf("dense.drop fired %d times over 3 requests", n)
		}
		mt := srv.Metrics()
		if fails := mt.denseVerifyFail.Load(); fails != 3 {
			t.Fatalf("verifyFail = %d, want 3", fails)
		}
		want := acHits([][]byte{[]byte("ab"), []byte("b")}, []byte("xxab"))
		if reply := stream.ask(t, srv.Handler(), id); !reply.answersDense(want) || mt.denseVerifyPass.Load() != 1 {
			t.Fatalf("request 4, disarmed: %+v, verifyPass %d, want the exact answer from a turn", reply, mt.denseVerifyPass.Load())
		}
		big := denseRoutes(t, textgen.New(5).Uniform(300, 26))[2]
		if reply := big.ask(t, srv.Handler(), id); !strings.Contains(reply.err, "too large") || reply.engine != "" {
			t.Fatalf("a container over the tee's %d bytes: %+v, want it refused unchecked", 64, reply)
		}
	})
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lz"
	"repro/internal/pram"
)

// streamSummary is the NDJSON trailer of /match/stream on success.
type streamSummary struct {
	N           int64  `json:"n"`
	Engine      string `json:"engine"` // "dense" or "tree"
	Segments    int64  `json:"segments"`
	Events      int64  `json:"events"`
	Rounds      int    `json:"rounds"`
	Work        int64  `json:"work"`
	Depth       int64  `json:"depth"`
	MaxResident int    `json:"maxResident"`
}

// ndLine is one NDJSON line of the streaming match protocol: an event
// (Pos set), the summary trailer, or an error trailer.
type ndLine struct {
	Pos     *int64         `json:"pos"`
	Pattern int32          `json:"pattern"`
	Length  int32          `json:"length"`
	Summary *streamSummary `json:"summary"`
	Error   string         `json:"error"`
}

func createDict(t *testing.T, base string, patterns ...string) string {
	t.Helper()
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": patterns})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created.ID
}

// TestStreamMatchBeyondBodyCap is the headline acceptance check: a text
// several times larger than MaxBodyBytes 413s on the buffered endpoint but
// streams fine — with events identical to the batch matcher, in strictly
// increasing position order, and a summary trailer.
func TestStreamMatchBeyondBodyCap(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 2, MaxBodyBytes: 4096,
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	patterns := []string{"aba", "ab", "b", "aabb", "cccc"}
	id := createDict(t, base, patterns...)

	rng := rand.New(rand.NewPCG(21, 22))
	text := make([]byte, 200_000)
	for i := range text {
		text[i] = byte('a' + rng.IntN(3))
	}

	// Buffered endpoint: the JSON body alone exceeds the cap.
	status, body := postJSON(t, base+"/v1/dicts/"+id+"/match", map[string]any{"text": string(text)})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("buffered match of %d bytes: status %d (%.80s), want 413", len(text), status, body)
	}

	// Streaming endpoint: same text, raw body, small segments.
	resp, err := http.Post(base+"/v1/dicts/"+id+"/match/stream?segment=4096", "application/octet-stream", bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream match: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Batch oracle, computed locally (Las Vegas output is seed-independent).
	m := pram.NewSequential()
	pb := make([][]byte, len(patterns))
	for i, p := range patterns {
		pb[i] = []byte(p)
	}
	dict := core.Preprocess(m, pb, core.Options{Seed: 7})
	want, _ := dict.MatchLasVegas(m, text)

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events int
	var lastPos int64 = -1
	var summary *streamSummary
	for sc.Scan() {
		var line ndLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Summary != nil:
			summary = line.Summary
		case line.Pos != nil:
			if summary != nil {
				t.Fatal("event after summary trailer")
			}
			if *line.Pos <= lastPos {
				t.Fatalf("positions out of order: %d after %d", *line.Pos, lastPos)
			}
			lastPos = *line.Pos
			w := want[*line.Pos]
			if w.Length != line.Length || w.PatternID != line.Pattern {
				t.Fatalf("pos %d: got (pat=%d,len=%d), batch says (pat=%d,len=%d)",
					*line.Pos, line.Pattern, line.Length, w.PatternID, w.Length)
			}
			events++
		default:
			t.Fatalf("unrecognized NDJSON line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	wantEvents := 0
	for _, w := range want {
		if w.Length > 0 {
			wantEvents++
		}
	}
	if events != wantEvents {
		t.Fatalf("stream emitted %d events, batch has %d", events, wantEvents)
	}
	if summary == nil {
		t.Fatal("no summary trailer")
	}
	if summary.N != int64(len(text)) || summary.Events != int64(events) {
		t.Fatalf("summary %+v does not match n=%d events=%d", summary, len(text), events)
	}
	if summary.Segments < 10 {
		t.Fatalf("expected many segments at segment=4096, got %d", summary.Segments)
	}
	if summary.Work <= 0 || summary.Depth <= 0 {
		t.Fatalf("summary ledger empty: %+v", summary)
	}

	// The per-stream counters surfaced in /metrics.
	snap := srv.Metrics().Snapshot(srv.Registry(), srv.Limiter())
	if snap.Streams.Started < 1 || snap.Streams.Segments < summary.Segments {
		t.Fatalf("stream metrics not ticking: %+v", snap.Streams)
	}
	if snap.Streams.Events != int64(events) || snap.Streams.Bytes != int64(len(text)) {
		t.Fatalf("stream metrics %+v, want events=%d bytes=%d", snap.Streams, events, len(text))
	}
	if snap.Streams.Active != 0 {
		t.Fatalf("stream still active after completion: %+v", snap.Streams)
	}
}

// TestStreamMatchDisconnectAborts checks that a client that vanishes
// mid-stream releases the server promptly, whichever engine serves the
// stream: the handler returns, the in-flight gauge drops to zero, the
// limiter slot frees, and no pipeline goroutine is left blocked on the body.
func TestStreamMatchDisconnectAborts(t *testing.T) {
	for _, mode := range []string{DenseOn, DenseOff} {
		t.Run("dense="+mode, func(t *testing.T) { testStreamDisconnect(t, mode) })
	}
}

func testStreamDisconnect(t *testing.T, denseMode string) {
	srv, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 2, DenseMode: denseMode})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	id := createDict(t, base, "ab", "ba")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/dicts/"+id+"/match/stream?segment=1024", pr)
	if err != nil {
		t.Fatal(err)
	}
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	// Feed two full segments so the server commits headers and flushes
	// events, then stall forever (from the server's point of view).
	chunk := bytes.Repeat([]byte("ab"), 1024)
	if _, err := pw.Write(chunk); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respCh:
	case err := <-errCh:
		t.Fatalf("request failed before headers: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no response headers within 10s")
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading first event byte: %v", err)
	}
	if got := srv.Metrics().Snapshot(nil, nil).Streams.Active; got != 1 {
		t.Fatalf("active streams = %d, want 1", got)
	}
	if streamGoroutines() == 0 {
		t.Fatal("no pipeline goroutine while the stream is open; the leak probe is blind")
	}

	// Vanish.
	cancel()
	pw.CloseWithError(fmt.Errorf("client gone"))
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Snapshot(nil, nil).Streams.Active != 0 || streamGoroutines() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("10s after disconnect: %d active streams, %d pipeline goroutines",
				srv.Metrics().Snapshot(nil, nil).Streams.Active, streamGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if inflight := srv.Limiter().Inflight(); inflight != 0 {
		t.Fatalf("limiter still holds %d slots after disconnect", inflight)
	}
}

// streamGoroutines counts goroutines inside the stream pipeline (the
// producer blocked on the body, the consumer running windows).
func streamGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "repro/internal/stream.runWindows")
}

func TestStreamDecompress(t *testing.T) {
	_, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 2})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	m := pram.NewSequential()
	rng := rand.New(rand.NewPCG(31, 32))
	text := make([]byte, 150_000)
	for i := range text {
		text[i] = byte('a' + rng.IntN(4))
	}
	var enc bytes.Buffer
	if err := lz.EncodeStream(&enc, lz.Compress(m, text)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(base+"/v1/decompress/stream", "application/octet-stream", bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %.120s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Uncompressed-Length"); got != fmt.Sprint(len(text)) {
		t.Fatalf("X-Uncompressed-Length = %q, want %d", got, len(text))
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, text) {
		t.Fatalf("decompressed %d bytes diverge from original %d", len(out), len(text))
	}

	// A non-container body gets a real status, not a truncated stream.
	resp, err = http.Post(base+"/v1/decompress/stream", "application/octet-stream", strings.NewReader("definitely not LZ1R1"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad magic: status %d, want 422", resp.StatusCode)
	}
}

// TestStreamDecompressWindowed pins the bounded-memory contract: with a
// finite StreamWindow, a container whose copies reach back beyond the
// retained history is rejected rather than silently corrupted.
func TestStreamDecompressWindowed(t *testing.T) {
	_, base, shutdown := startServer(t, Config{Addr: "127.0.0.1:0", Procs: 1, StreamWindow: 64})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	c := lz.Compressed{N: 510}
	for i := 0; i < 10; i++ {
		c.Tokens = append(c.Tokens, lz.Token{Len: 0, Lit: byte('0' + i)})
	}
	for i := 0; i < 50; i++ {
		c.Tokens = append(c.Tokens, lz.Token{Src: 0, Len: 10})
	}
	var enc bytes.Buffer
	if err := lz.EncodeStream(&enc, c); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/decompress/stream", "application/octet-stream", bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("window escape: status %d, want 422", resp.StatusCode)
	}
}

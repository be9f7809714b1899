package server

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/czsearch"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/textgen"
)

// compressPlanted compresses text into an LZ1R1 container.
func compressPlanted(t *testing.T, text []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lz.EncodeStream(&buf, lz.Compress(pram.NewSequential(), text)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// registerCz registers patterns and returns the dictionary's ID.
func registerCz(t *testing.T, base string, patterns [][]byte) string {
	t.Helper()
	strs := make([]string, len(patterns))
	for i, p := range patterns {
		strs[i] = string(p)
	}
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": strs})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created.ID
}

// createCzDict registers a planted dictionary and returns its ID, the
// planted text, and the text's LZ1R1 container. The text is random between
// the plants, so its parse has short tokens (mean ≈ 8 B): below the
// scanner's cutover, served by the expanded mode.
func createCzDict(t *testing.T, base string, seed uint64) (string, []byte, []byte) {
	t.Helper()
	text, patterns := textgen.New(seed).PlantedDictionary(1<<16, 16, 6, 97, 4)
	return registerCz(t, base, patterns), text, compressPlanted(t, text)
}

// createCzRepetitive is createCzDict on the other side of the cutover: a
// 256-byte block repeated with 0.5 % point mutations parses into tokens of
// ≈ 140 B, the token scanner's own ground. The patterns are cut from the
// block, so every repetition matches.
func createCzRepetitive(t *testing.T, base string, seed uint64) (string, []byte, []byte) {
	t.Helper()
	text := textgen.New(seed).Repetitive(1<<16, 256, 0.005)
	patterns := make([][]byte, 16)
	for i := range patterns {
		patterns[i] = text[i*13 : i*13+6]
	}
	return registerCz(t, base, patterns), text, compressPlanted(t, text)
}

// oracleHits fetches /v1/dicts/{id}/match for text — the decompress-then-
// match reference every compressed request must equal.
func oracleHits(t *testing.T, base, id string, text []byte) []matchHit {
	t.Helper()
	status, body := postJSON(t, base+"/v1/dicts/"+id+"/match",
		map[string]string{"textB64": base64.StdEncoding.EncodeToString(text)})
	if status != http.StatusOK {
		t.Fatalf("match: %d %s", status, body)
	}
	var mr matchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	return mr.Hits
}

// TestMatchCompressedBufferedEquivalence: the buffered endpoint reports
// exactly the hits /match reports on the expanded text, says which engine
// served — the token scanner above the cutover (fewer bytes touched than
// represented), its expanded mode below (engine "dense", every byte
// touched) — and the accounting invariant and the /metrics czsearch section
// hold up on both sides.
func TestMatchCompressedBufferedEquivalence(t *testing.T) {
	for _, side := range []struct {
		name   string
		create func(*testing.T, string, uint64) (string, []byte, []byte)
		engine string
	}{
		{"above-cutover", createCzRepetitive, engineCz},
		{"below-cutover", createCzDict, engineDense},
	} {
		t.Run(side.name, func(t *testing.T) {
			_, base, shutdown := startServer(t, Config{
				Addr: "127.0.0.1:0", Procs: 2, DenseMode: DenseOn,
			})
			id, text, container := side.create(t, base, 41)
			want := oracleHits(t, base, id, text)
			if len(want) == 0 {
				t.Fatal("bad fixture: the oracle has no hits")
			}

			for req := 0; req < 3; req++ {
				status, body := postJSON(t, base+"/v1/dicts/"+id+"/match/compressed/buffered",
					map[string]string{"dataB64": base64.StdEncoding.EncodeToString(container)})
				if status != http.StatusOK {
					t.Fatalf("request %d: %d %s", req, status, body)
				}
				var mr matchCompressedResponse
				if err := json.Unmarshal(body, &mr); err != nil {
					t.Fatal(err)
				}
				if mr.Engine != side.engine {
					t.Fatalf("request %d served by %q, want %q", req, mr.Engine, side.engine)
				}
				if mr.N != len(text) || mr.Matched != len(want) || len(mr.Hits) != len(want) {
					t.Fatalf("request %d: n=%d matched=%d, oracle has %d hits over %d bytes",
						req, mr.N, mr.Matched, len(want), len(text))
				}
				for i, h := range mr.Hits {
					if h != want[i] {
						t.Fatalf("request %d: hit %d = %+v, oracle %+v", req, i, h, want[i])
					}
				}
				st := mr.Stats
				if st.BytesRepresented != int64(len(text)) {
					t.Fatalf("bytesRepresented = %d, want %d", st.BytesRepresented, len(text))
				}
				if st.BytesTouched+st.SyncSkipped+st.MemoBytes != st.BytesRepresented {
					t.Fatalf("accounting: %d+%d+%d != %d",
						st.BytesTouched, st.SyncSkipped, st.MemoBytes, st.BytesRepresented)
				}
				if st.Expanded != (side.engine == engineDense) {
					t.Fatalf("stats.expanded = %v under engine %q", st.Expanded, mr.Engine)
				}
				if st.Expanded && st.BytesTouched != st.BytesRepresented {
					t.Fatalf("expanded run touched %d of %d bytes", st.BytesTouched, st.BytesRepresented)
				}
				if !st.Expanded && st.BytesTouched >= st.BytesRepresented {
					t.Fatalf("scanner touched every byte (%d of %d) — no compressed-domain savings",
						st.BytesTouched, st.BytesRepresented)
				}
			}

			var snap MetricsSnapshot
			if code := getJSON(t, base+"/metrics", &snap); code != http.StatusOK {
				t.Fatalf("metrics: %d", code)
			}
			cz := snap.Cz
			wantServed, wantExpanded := int64(3), int64(0)
			if side.engine == engineDense {
				wantServed, wantExpanded = 0, 3
			}
			if cz.Served != wantServed || cz.Expanded != wantExpanded || cz.Fallback != 0 {
				t.Fatalf("cz served=%d expanded=%d fallback=%d, want %d/%d/0",
					cz.Served, cz.Expanded, cz.Fallback, wantServed, wantExpanded)
			}
			if cz.Tokens == 0 || cz.BytesRepresented != 3*int64(len(text)) ||
				(cz.BytesTouched < cz.BytesRepresented) != (side.engine == engineCz) {
				t.Fatalf("cz accounting counters: %+v", cz)
			}
			if cz.VerifyPass < 1 || cz.VerifyFail != 0 {
				t.Fatalf("cz verify: pass=%d fail=%d", cz.VerifyPass, cz.VerifyFail)
			}
			if err := shutdown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// ndjsonEvents posts a raw container to the streaming endpoint and returns
// the event lines plus the parsed summary (nil if the stream ended in an
// error line or no trailer at all).
type czStreamSummary struct {
	N      int64          `json:"n"`
	Engine string         `json:"engine"`
	Stats  czsearch.Stats `json:"stats"`
}

func postCompressedStream(t *testing.T, url string, container []byte) (int, []matchHit, *czStreamSummary, string) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(container))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, nil, nil, string(body)
	}
	var hits []matchHit
	var summary *czStreamSummary
	errLine := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var obj struct {
			Pos     *int             `json:"pos"`
			Pattern int              `json:"pattern"`
			Length  int              `json:"length"`
			Summary *czStreamSummary `json:"summary"`
			Error   *string          `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case obj.Pos != nil:
			hits = append(hits, matchHit{Pos: *obj.Pos, Pattern: obj.Pattern, Length: obj.Length})
		case obj.Summary != nil:
			summary = obj.Summary
		case obj.Error != nil:
			errLine = *obj.Error
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, hits, summary, errLine
}

// TestMatchCompressedStreaming: the NDJSON route emits the oracle's events
// in position order and closes with a summary naming the engine — the token
// scanner for the long-token container, "dense" for the short-token one.
func TestMatchCompressedStreaming(t *testing.T) {
	_, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 2, DenseMode: DenseOn,
	})
	for _, side := range []struct {
		create func(*testing.T, string, uint64) (string, []byte, []byte)
		engine string
	}{{createCzRepetitive, engineCz}, {createCzDict, engineDense}} {
		id, text, container := side.create(t, base, 43)
		want := oracleHits(t, base, id, text)

		status, hits, summary, errLine := postCompressedStream(t, base+"/v1/dicts/"+id+"/match/compressed", container)
		if status != http.StatusOK {
			t.Fatalf("stream: %d %s", status, errLine)
		}
		if errLine != "" {
			t.Fatalf("stream error: %s", errLine)
		}
		if summary == nil {
			t.Fatal("stream ended without a summary trailer")
		}
		if summary.Engine != side.engine || summary.N != int64(len(text)) {
			t.Fatalf("summary = %+v, want engine %q", summary, side.engine)
		}
		st := summary.Stats
		if st.BytesTouched+st.SyncSkipped+st.MemoBytes != st.BytesRepresented {
			t.Fatalf("accounting: %d+%d+%d != %d",
				st.BytesTouched, st.SyncSkipped, st.MemoBytes, st.BytesRepresented)
		}
		if len(hits) != len(want) {
			t.Fatalf("%d events, oracle has %d", len(hits), len(want))
		}
		for i, h := range hits {
			if h != want[i] {
				t.Fatalf("event %d = %+v, oracle %+v", i, h, want[i])
			}
		}
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestMatchCompressedFallback: with dense off, both compressed routes still
// answer — decompress-and-tree-walk, engine "tree", every byte touched —
// and the fallback counter records it.
func TestMatchCompressedFallback(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 2, DenseMode: DenseOff,
	})
	id, text, container := createCzDict(t, base, 47)
	want := oracleHits(t, base, id, text)

	status, body := postJSON(t, base+"/v1/dicts/"+id+"/match/compressed/buffered",
		map[string]string{"dataB64": base64.StdEncoding.EncodeToString(container)})
	if status != http.StatusOK {
		t.Fatalf("buffered: %d %s", status, body)
	}
	var mr matchCompressedResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Engine != engineTree {
		t.Fatalf("engine = %q with dense off, want %q", mr.Engine, engineTree)
	}
	if mr.Matched != len(want) {
		t.Fatalf("matched %d, oracle has %d", mr.Matched, len(want))
	}
	for i, h := range mr.Hits {
		if h.Pos != want[i].Pos || h.Length != want[i].Length {
			t.Fatalf("hit %d = %+v, oracle %+v", i, h, want[i])
		}
	}
	if mr.Stats.BytesTouched != mr.Stats.BytesRepresented {
		t.Fatalf("fallback claims compressed-domain savings: touched %d of %d",
			mr.Stats.BytesTouched, mr.Stats.BytesRepresented)
	}

	status, hits, summary, errLine := postCompressedStream(t, base+"/v1/dicts/"+id+"/match/compressed", container)
	if status != http.StatusOK || errLine != "" || summary == nil {
		t.Fatalf("stream: status=%d err=%q summary=%v", status, errLine, summary)
	}
	if summary.Engine != engineTree || len(hits) != len(want) {
		t.Fatalf("stream fallback: engine=%q events=%d want=%d", summary.Engine, len(hits), len(want))
	}

	if n := srv.Metrics().czFallback.Load(); n != 2 {
		t.Fatalf("czFallback = %d, want 2", n)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestMatchCompressedRejects pins the error contract: wrong format is 422
// with a typed message (not a panic, not a hang), bad base64 is 400, an
// unknown dictionary 404, and a container whose header promises more than
// MaxExpandBytes is 413 on both routes. A rejected container takes no oracle
// turn: the first one scanned afterwards is still the entry's request 1.
func TestMatchCompressedRejects(t *testing.T) {
	srv, base, shutdown := startServer(t, Config{
		Addr: "127.0.0.1:0", Procs: 1, DenseMode: DenseOn, MaxExpandBytes: 4 << 10,
	})
	gen := textgen.New(7)
	text, patterns := gen.PlantedDictionary(1<<12, 8, 5, 31, 4)
	strs := make([]string, len(patterns))
	for i, p := range patterns {
		strs[i] = string(p)
	}
	status, body := postJSON(t, base+"/v1/dicts", map[string]any{"patterns": strs})
	if status != http.StatusCreated {
		t.Fatalf("dict create: %d %s", status, body)
	}
	var created dictCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID

	// Wrong format: both routes answer 422 and mention LZ1R1.
	notLZ := []byte("this is plain text, not a container")
	status, body = postJSON(t, base+"/v1/dicts/"+id+"/match/compressed/buffered",
		map[string]string{"dataB64": base64.StdEncoding.EncodeToString(notLZ)})
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "LZ1R1") {
		t.Fatalf("buffered non-container: %d %s", status, body)
	}
	status, _, _, errBody := postCompressedStream(t, base+"/v1/dicts/"+id+"/match/compressed", notLZ)
	if status != http.StatusUnprocessableEntity || !strings.Contains(errBody, "LZ1R1") {
		t.Fatalf("stream non-container: %d %s", status, errBody)
	}

	// Bad base64 is a 400, unknown dictionary a 404.
	status, body = postJSON(t, base+"/v1/dicts/"+id+"/match/compressed/buffered",
		map[string]string{"dataB64": "!!!"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad base64: %d %s", status, body)
	}
	status, body = postJSON(t, base+"/v1/dicts/nope/match/compressed/buffered",
		map[string]string{"dataB64": ""})
	if status != http.StatusNotFound {
		t.Fatalf("unknown dict: %d %s", status, body)
	}

	// Oversized represented length: 8 KiB of text against a 4 KiB cap.
	big := compressPlanted(t, bytes.Repeat([]byte("ab"), 4<<10))
	status, body = postJSON(t, base+"/v1/dicts/"+id+"/match/compressed/buffered",
		map[string]string{"dataB64": base64.StdEncoding.EncodeToString(big)})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized buffered: %d %s", status, body)
	}
	status, _, _, errBody = postCompressedStream(t, base+"/v1/dicts/"+id+"/match/compressed", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized stream: %d %s", status, errBody)
	}

	// Neither streamed rejection burned the entry's first oracle turn.
	status, _, summary, errBody := postCompressedStream(t, base+"/v1/dicts/"+id+"/match/compressed", compressPlanted(t, text))
	if status != http.StatusOK || summary == nil {
		t.Fatalf("valid stream after rejects: %d %s", status, errBody)
	}
	if n := srv.Metrics().czVerifyPass.Load(); n != 1 {
		t.Fatalf("czVerifyPass = %d after the first scanned container, want 1", n)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

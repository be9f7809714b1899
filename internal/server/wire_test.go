package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/textgen"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire/dense.json from this build's replies")

// wireGolden is the recorded wire behaviour of the dense routes.
const wireGolden = "testdata/wire/dense.json"

// wireExchange is one recorded reply: what a client sees of it, hashed.
type wireExchange struct {
	Name        string `json:"name"`
	Status      int    `json:"status"`
	ContentType string `json:"contentType"`
	Len         int    `json:"len"`
	SHA256      string `json:"sha256"`
}

// wireReply is one reply before hashing.
type wireReply struct {
	status      int
	contentType string
	body        []byte
}

func (r wireReply) record(name string) wireExchange {
	sum := sha256.Sum256(r.body)
	return wireExchange{Name: name, Status: r.status, ContentType: r.contentType, Len: len(r.body), SHA256: hex.EncodeToString(sum[:])}
}

// wireDict is one dictionary of the replay and the alphabet of the texts it
// is asked about.
type wireDict struct {
	name     string
	patterns [][]byte
	sigma    int
	tree     bool // registered on the server whose table budget refuses it
}

// wirePlant is a dictionary planted into a test text every `every` bytes, so
// every route has matches to report.
type wirePlant struct {
	patterns [][]byte
	every    int
}

// wireText is n random bytes over sigma letters with each plant's patterns
// written over them.
func wireText(n, sigma int, seed uint64, plants ...wirePlant) []byte {
	text := textgen.New(seed).Uniform(n, sigma)
	rng := rand.New(rand.NewPCG(seed, 49))
	for _, pl := range plants {
		for i := 0; i+pl.every <= n; i += pl.every {
			p := pl.patterns[rng.IntN(len(pl.patterns))]
			copy(text[i:min(i+len(p), n)], p)
		}
	}
	return text
}

// container is text as an LZ1R1 container from the sequential compressor.
func container(t testing.TB, text []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lz.EncodeStream(&buf, lz.CompressSequential(pram.NewSequential(), text)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serverMatchReply is Server.Match's answer as bytes: the engine and
// attempts, then one line per position with a match — the M[] it returned.
func serverMatchReply(srv *Server, id string, text []byte) wireReply {
	ms, attempts, engine, err := srv.Match(context.Background(), id, text)
	if err != nil {
		status := http.StatusInternalServerError
		if err == ErrUnknownDict {
			status = http.StatusNotFound
		}
		return wireReply{status: status, body: []byte(err.Error())}
	}
	b := append([]byte(engine+" "), strconv.Itoa(attempts)+"\n"...)
	for i, m := range ms {
		if m.Length > 0 {
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(m.PatternID), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(m.Length), 10)
			b = append(b, '\n')
		}
	}
	return wireReply{status: http.StatusOK, body: b}
}

// TestDenseRoutesWire replays the dense routes — /match, Server.Match,
// /match/stream at two segment sizes, /match/compressed and its buffered
// form — over dense- and tree-served dictionaries, texts from empty to
// 300 KB at one and four procs, and their error paths, and requires every
// reply byte-identical to the recorded one (status, Content-Type, body
// length and SHA-256). Every exchange is sent twice, the first a canary
// turn and the second not, and the two must agree. -update rewrites the
// recording.
func TestDenseRoutesWire(t *testing.T) {
	gen := textgen.New(49)
	sigma26, sigma4 := gen.Dictionary(128, 8, 16, 26), gen.Dictionary(64, 3, 8, 4)
	long600 := [][]byte{gen.Uniform(600, 26)}
	dicts := []wireDict{
		{name: "sigma26", patterns: sigma26, sigma: 26},
		{name: "sigma4", patterns: sigma4, sigma: 4},
		{name: "long600", patterns: long600, sigma: 26},
		{name: "tree", patterns: sigma26, sigma: 26, tree: true},
	}
	sizes := []struct {
		name string
		n    int
	}{{"0B", 0}, {"1B", 1}, {"4KiB", 4 << 10}, {"300KB", 300_000}}
	type wireCase struct {
		name      string
		text      []byte
		container []byte
	}
	// One text per alphabet and size (compressing 300 KB is most of the
	// replay's set-up): the σ 26 dictionaries share theirs.
	cases := map[int][]wireCase{}
	for j, sz := range sizes {
		for _, sigma := range []int{26, 4} {
			text := wireText(sz.n, sigma, uint64(10*sigma+j), wirePlant{sigma26, 40}, wirePlant{long600, 1500})
			if sigma == 4 {
				text = wireText(sz.n, sigma, uint64(10*sigma+j), wirePlant{sigma4, 40})
			}
			cases[sigma] = append(cases[sigma], wireCase{sz.name, text, container(t, text)})
		}
	}
	// An LZ1R1 header claiming one byte over the expansion cap: the
	// compressed routes refuse it before reading a token.
	const expandCap = 1 << 20
	var overCap bytes.Buffer
	huge := expandCap + 1
	if err := lz.EncodeStream(&overCap, lz.Compressed{N: huge, Tokens: []lz.Token{{Lit: 'a'}, {Src: 0, Len: int32(huge - 1)}}}); err != nil {
		t.Fatal(err)
	}
	buffered := func(c []byte) []byte {
		b, _ := json.Marshal(map[string]string{"dataB64": base64.StdEncoding.EncodeToString(c)})
		return b
	}

	var got []wireExchange
	for _, procs := range []int{1, 4} {
		servers := map[bool]*Server{}
		for _, tree := range []bool{false, true} {
			cfg := Config{Procs: procs, MaxExpandBytes: expandCap, Log: quietLogger()}
			if tree {
				cfg.DenseMaxTableBytes = 64
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			servers[tree] = srv
		}
		pname := "procs" + strconv.Itoa(procs) + "/"
		// exchange sends one request and records it. On a dense entry e it
		// sends it twice, the first on a canary turn and the second not.
		exchange := func(name string, e *Entry, send func() wireReply) {
			turns := e != nil && e.aut.Load() != nil
			if turns {
				e.denseReqs.Store(0)
				e.czReqs.Store(0)
			}
			first := send()
			second := first
			if turns {
				second = send()
			}
			if first.status != second.status || first.contentType != second.contentType || !bytes.Equal(first.body, second.body) {
				t.Errorf("%s: a canary turn answered %d %q (%d B), the next request %d %q (%d B)", name,
					first.status, first.contentType, len(first.body), second.status, second.contentType, len(second.body))
			}
			got = append(got, first.record(pname+name))
		}
		post := func(srv *Server, path string, body []byte) func() wireReply {
			return func() wireReply {
				rec := serveRoute(srv.Handler(), http.MethodPost, path, body)
				return wireReply{rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes()}
			}
		}
		for _, d := range dicts {
			srv := servers[d.tree]
			strs := make([]string, len(d.patterns))
			for k, p := range d.patterns {
				strs[k] = string(p)
			}
			id := createVia(t, srv, strs).ID
			e, _ := srv.Registry().Get(id)
			dict := "/v1/dicts/" + id
			for _, c := range cases[d.sigma] {
				name := d.name + "/" + c.name + "/"
				exchange(name+"match", e, post(srv, dict+"/match", b64Body(c.text)))
				exchange(name+"Server.Match", e, func() wireReply { return serverMatchReply(srv, id, c.text) })
				exchange(name+"stream", e, post(srv, dict+"/match/stream", c.text))
				exchange(name+"stream1024", e, post(srv, dict+"/match/stream?segment=1024", c.text))
				exchange(name+"compressed", e, post(srv, dict+"/match/compressed", c.container))
				exchange(name+"buffered", e, post(srv, dict+"/match/compressed/buffered", buffered(c.container)))
			}
			if d.name != "sigma26" && !d.tree {
				continue
			}
			name := d.name + "/errors/"
			exchange(name+"match/bad-base64", e, post(srv, dict+"/match", []byte(`{"textB64":"!!"}`)))
			exchange(name+"buffered/bad-base64", e, post(srv, dict+"/match/compressed/buffered", []byte(`{"dataB64":"!!"}`)))
			exchange(name+"stream/segment-12", e, post(srv, dict+"/match/stream?segment=12", []byte("abc")))
			exchange(name+"stream/segment-abc", e, post(srv, dict+"/match/stream?segment=abc", []byte("abc")))
			exchange(name+"compressed/over-cap", e, post(srv, dict+"/match/compressed", overCap.Bytes()))
			exchange(name+"buffered/over-cap", e, post(srv, dict+"/match/compressed/buffered", buffered(overCap.Bytes())))
			missing := "/v1/dicts/d999"
			exchange(name+"unknown/match", nil, post(srv, missing+"/match", b64Body([]byte("abc"))))
			exchange(name+"unknown/Server.Match", nil, func() wireReply { return serverMatchReply(srv, "d999", []byte("abc")) })
			exchange(name+"unknown/stream", nil, post(srv, missing+"/match/stream", []byte("abc")))
			exchange(name+"unknown/compressed", nil, post(srv, missing+"/match/compressed", cases[26][1].container))
			exchange(name+"unknown/buffered", nil, post(srv, missing+"/match/compressed/buffered", buffered(cases[26][1].container)))
		}
	}

	if *updateWire {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(wireGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want []wireExchange
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d exchanges, recording has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("exchange %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

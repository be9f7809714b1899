package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fuzzTarget is a shared server instance for the fuzzer. One dictionary is
// pre-registered so the {id} routes exercise their deep paths ("d1" is the
// first assigned ID); tight body/dict limits keep each iteration cheap.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzHandler() http.Handler {
	fuzzOnce.Do(func() {
		var err error
		fuzzSrv, err = New(Config{
			Addr:         "127.0.0.1:0",
			Procs:        1,
			MaxDicts:     4,
			MaxInflight:  16,
			MaxBodyBytes: 1 << 12,
			MaxDictBytes: 1 << 10,
			Log:          quietLogger(),
		})
		if err != nil {
			panic(err)
		}
		rec := httptest.NewRecorder()
		body := strings.NewReader(`{"patterns": ["ab", "ba", "abb"]}`)
		req := httptest.NewRequest("POST", "/v1/dicts", body)
		fuzzSrv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			panic("fuzz setup: dictionary registration failed")
		}
	})
	return fuzzSrv.Handler()
}

// fuzzRoutes are the JSON-decoding endpoints the fuzzer drives, selected by
// the first fuzz argument.
var fuzzRoutes = []struct {
	method string
	path   string
}{
	{"POST", "/v1/dicts"},
	{"POST", "/v1/dicts/d1/match"},
	{"POST", "/v1/dicts/d1/parse"},
	{"POST", "/v1/dicts/d1/expand"},
	{"POST", "/v1/dicts/nosuch/match"},
	{"POST", "/v1/compress"},
	{"POST", "/v1/decompress"},
	{"GET", "/v1/dicts"},
	{"GET", "/metrics"},
	{"DELETE", "/v1/dicts/zzz"},
}

// FuzzTextPayload holds /match's fast request path to encoding/json: for any
// body, fastText either declines or yields exactly the text the
// encoding/json path (decode, no trailing data, textPayload.bytes) yields.
func FuzzTextPayload(f *testing.F) {
	for _, body := range []string{
		`{"textB64":"YWJyYWNhZGFicmE="}`,
		" \t\r\n{ \"textB64\" :\n\"YWJyYWNhZGFicmE=\" } \n",
		`{"textB64":"YWJy\/YWNh"}`,
		`{"textB64":"QQ==","textB64":"Qg=="}`,
		`{"TEXTB64":"QQ=="}`,
		`{"textB64":"QQ==","extra":1}`,
		`{"text":"abc","textB64":"QQ=="}`,
		`{"textB64":""}`,
		`{"textB64":"%%%"}`,
		"{\"textB64\":\"QQ\xff\xfe==\"}",
		"{\"textB64\":\"QQ\n==\"}",
		"{\"textB64\":\"QQ\x01==\"}",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := fastText(body, nil)
		if !ok {
			return
		}
		var req textPayload
		dec := json.NewDecoder(bytes.NewReader(body))
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", body, err)
		}
		if err := dec.Decode(&struct{}{}); err != io.EOF {
			t.Fatalf("fast path accepted %q, encoding/json finds trailing data", body)
		}
		want, err := req.bytes()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("body %q: fast path text %q, encoding/json path %q (err %v)", body, got, want, err)
		}
	})
}

// FuzzHandleRequests feeds arbitrary bytes to every JSON request decoder.
// The contract: no panic ever reaches the client, and every response is a
// well-formed HTTP status with a JSON body.
func FuzzHandleRequests(f *testing.F) {
	f.Add(uint8(0), []byte(`{"patterns": ["ab", "ba"]}`))
	f.Add(uint8(0), []byte(`{"patterns": [""]}`))
	f.Add(uint8(0), []byte(`{"patternsB64": ["not-base64!"]}`))
	f.Add(uint8(1), []byte(`{"text": "abba"}`))
	f.Add(uint8(1), []byte(`{"textB64": "%%%"}`))
	f.Add(uint8(2), []byte(`{"text": "abab"}`))
	f.Add(uint8(3), []byte(`{"refs": [0, 1, 2]}`))
	f.Add(uint8(3), []byte(`{"refs": [-1, 99999]}`))
	f.Add(uint8(5), []byte(`{"text": "aaaaaaaa"}`))
	f.Add(uint8(6), []byte(`{"dataB64": "TFoxUjEK"}`))
	f.Add(uint8(6), []byte(`{"dataB64": 42}`))
	f.Add(uint8(1), []byte(`{not json at all`))
	f.Add(uint8(2), []byte(``))
	f.Add(uint8(4), []byte(`null`))
	f.Add(uint8(7), []byte(`ignored`))

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		h := fuzzHandler()
		route := fuzzRoutes[int(which)%len(fuzzRoutes)]
		req := httptest.NewRequest(route.method, route.path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a decoder panic propagates and fails the fuzz run
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("%s %s: invalid status %d", route.method, route.path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct == "application/json" {
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %s: status %d with invalid JSON body %q",
					route.method, route.path, rec.Code, rec.Body.Bytes())
			}
		}
	})
}

package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lz"
	"repro/internal/persist"
	"repro/internal/pram"
	"repro/internal/stream"
)

// JSON plumbing ------------------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client went away; nothing sensible to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// slicePool recycles the buffered routes' per-request slices. A slice that
// grew beyond max elements is dropped rather than pooled, so one large body
// does not stay pinned behind a pool of small ones.
type slicePool[T any] struct {
	p   sync.Pool
	max int
}

func (sp *slicePool[T]) get() *[]T {
	if b, ok := sp.p.Get().(*[]T); ok {
		return b
	}
	return new([]T)
}

func (sp *slicePool[T]) put(b *[]T) {
	if cap(*b) > sp.max {
		return
	}
	*b = (*b)[:0]
	sp.p.Put(b)
}

// maxPooledBytes caps what the pools keep per slice: 4 MiB covers the
// bodies, texts and replies of ordinary requests.
const maxPooledBytes = 4 << 20

var (
	bytePool  = slicePool[byte]{max: maxPooledBytes}                   // bodies, decoded texts, replies
	eventPool = slicePool[stream.MatchEvent]{max: maxPooledBytes / 16} // /match's events
)

// readBody reads the whole request body, at most MaxBodyBytes of it, into
// a pooled buffer the caller returns with bytePool.put. Reading it whole
// before decoding is what makes every over-limit body a 413, even one whose
// JSON value ends inside the limit. It writes the error response itself
// and reports whether the read succeeded.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*[]byte, bool) {
	body := bytePool.get()
	// Content-Length sizes the buffer up to the pool's cap; beyond it the
	// buffer grows as bytes arrive, so a declared length costs nothing until
	// the bytes do.
	hint := int(min(r.ContentLength, s.cfg.MaxBodyBytes, maxPooledBytes))
	var err error
	*body, err = readAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), *body, hint)
	if err == nil {
		return body, true
	}
	bytePool.put(body)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
		return nil, false
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	return nil, false
}

// readAll is io.ReadAll into buf's storage, sized for hint bytes up front.
func readAll(r io.Reader, buf []byte, hint int) ([]byte, error) {
	if cap(buf) <= hint {
		buf = make([]byte, 0, hint+1) // +1: the read that sees EOF needs room
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeJSON reads and decodes the request body into dst, rejecting
// oversized bodies, malformed JSON, and trailing garbage. It writes the
// error response itself and reports whether decoding succeeded.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	defer bytePool.put(body)
	return decodeBody(w, *body, dst)
}

// decodeBody is decodeJSON's decode step over a body already read.
func decodeBody(w http.ResponseWriter, body []byte, dst any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// textPayload is the common "give me bytes" request shape: Text for UTF-8
// friendly payloads, TextB64 for arbitrary binary (it wins when both are
// set).
type textPayload struct {
	Text    string `json:"text"`
	TextB64 string `json:"textB64"`
}

func (p *textPayload) bytes() ([]byte, error) {
	if p.TextB64 != "" {
		return base64.StdEncoding.DecodeString(p.TextB64)
	}
	return []byte(p.Text), nil
}

// decodeText returns the text of a textPayload body, writing the error
// response itself when there is none. The shape every shipped client sends
// is decoded by fastText into *buf; any other body goes through
// encoding/json and textPayload.bytes, with their status codes and error
// strings.
func decodeText(w http.ResponseWriter, body []byte, buf *[]byte) ([]byte, bool) {
	if text, ok := fastText(body, *buf); ok {
		*buf = text
		return text, true
	}
	var req textPayload
	if !decodeBody(w, body, &req) {
		return nil, false
	}
	text, err := req.bytes()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad textB64: %v", err)
		return nil, false
	}
	return text, true
}

// fastText decodes a body that is exactly {"textB64":"<value>"}, with
// optional JSON whitespace between the tokens, into dst's storage. It
// declines — and the body takes the encoding/json path — for any other
// shape (other or more keys, escapes, an empty value) and whenever the
// value does not decode. Whatever it accepts, encoding/json decodes to the
// same TextB64 with no error: the value holds no quote by construction, the
// base64 decoder rejects every byte JSON would read differently (a
// backslash, a control character, non-ASCII) except \r and \n, which it
// skips and JSON forbids, and those are refused here.
func fastText(body, dst []byte) ([]byte, bool) {
	v, ok := textB64Value(body)
	if !ok || bytes.IndexByte(v, '\n') >= 0 || bytes.IndexByte(v, '\r') >= 0 {
		return nil, false
	}
	n := base64.StdEncoding.DecodedLen(len(v))
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	n, err := base64.StdEncoding.Decode(dst[:n], v)
	if err != nil {
		return nil, false
	}
	return dst[:n], true
}

// textB64Value returns the raw, non-empty string value of a body shaped
// {"textB64":"<value>"}: the bytes between the value's quotes, up to the
// first closing one.
func textB64Value(body []byte) ([]byte, bool) {
	const key = `"textB64"`
	b := skipSpace(body)
	if len(b) == 0 || b[0] != '{' {
		return nil, false
	}
	b = skipSpace(b[1:])
	if len(b) < len(key) || string(b[:len(key)]) != key {
		return nil, false
	}
	b = skipSpace(b[len(key):])
	if len(b) == 0 || b[0] != ':' {
		return nil, false
	}
	b = skipSpace(b[1:])
	if len(b) == 0 || b[0] != '"' {
		return nil, false
	}
	b = b[1:]
	end := bytes.IndexByte(b, '"')
	if end <= 0 {
		return nil, false
	}
	v := b[:end]
	b = skipSpace(b[end+1:])
	if len(b) == 0 || b[0] != '}' || len(skipSpace(b[1:])) != 0 {
		return nil, false
	}
	return v, true
}

// skipSpace drops leading JSON whitespace.
func skipSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r') {
		b = b[1:]
	}
	return b
}

// writeCtxError maps a context error to 503 (deadline) or 499-style close.
// Both carry Retry-After: the request died of server-side pressure, not a
// client mistake, and a prompt retry usually lands on a quieter instance.
func writeCtxError(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded")
		return
	}
	writeError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
}

// writeDegraded answers for an entry whose circuit breaker is open: a 503
// with Retry-After, so clients back off while the background fingerprint
// rebuild runs.
func writeDegraded(w http.ResponseWriter, de *DegradedError) {
	w.Header().Set("Retry-After", degradedRetryAfter)
	writeError(w, http.StatusServiceUnavailable, "dictionary %s is degraded, recovery in progress; retry shortly", de.ID)
}

// Dictionary registry endpoints --------------------------------------------

type dictCreateRequest struct {
	Patterns    []string `json:"patterns"`
	PatternsB64 []string `json:"patternsB64"`
	Seed        uint64   `json:"seed"`
}

type dictCreateResponse struct {
	ID          string   `json:"id"`
	Patterns    int      `json:"patterns"`
	TotalLen    int      `json:"totalLen"`
	Source      string   `json:"source"`
	SnapshotKey string   `json:"snapshotKey,omitempty"`
	Evicted     []string `json:"evicted,omitempty"`
	Bytes       int      `json:"bytes,omitempty"` // snapshot size, restore only
}

// handleDictCreate makes a pattern set resident. With a snapshot cache
// configured, the content address of (patterns, options) is looked up
// first: a hit loads the bundle's automaton with zero PRAM preprocessing
// (source "cache"); a miss compiles the automaton from the patterns —
// still no §3 preprocessing unless the tree walk must serve — and writes
// the snapshot through, so the next boot or identical create hits.
func (s *Server) handleDictCreate(w http.ResponseWriter, r *http.Request) {
	var req dictCreateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	patterns := make([][]byte, 0, len(req.Patterns)+len(req.PatternsB64))
	for _, p := range req.Patterns {
		patterns = append(patterns, []byte(p))
	}
	for _, p := range req.PatternsB64 {
		b, err := base64.StdEncoding.DecodeString(p)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad patternsB64 entry: %v", err)
			return
		}
		patterns = append(patterns, b)
	}
	if len(patterns) == 0 {
		writeError(w, http.StatusBadRequest, "at least one pattern required")
		return
	}
	total := 0
	for _, p := range patterns {
		if len(p) == 0 {
			writeError(w, http.StatusBadRequest, "empty patterns are not allowed")
			return
		}
		total += len(p)
	}
	if int64(total) > s.cfg.MaxDictBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			"dictionary is %d bytes, limit %d", total, s.cfg.MaxDictBytes)
		return
	}
	opts := core.Options{Seed: req.Seed}

	// In cluster mode the dictionary's ID is its content address, so every
	// node derives the same name for the same patterns with zero
	// coordination — and create becomes idempotent. A node that does not own
	// the address forwards the create to the owners (once: the routed copy
	// carries the loop-guard header and is served locally).
	id := "" // "" = registry assigns d<seq>
	var key persist.Key
	keyKnown := false
	if s.cluster != nil || s.store != nil {
		key = persist.KeyFor(patterns, opts)
		keyKnown = true
	}
	if c := s.cluster; c != nil {
		id = key.String()
		if !c.membership.OwnsSelf(id) && r.Header.Get(clusterFromHeader) == "" {
			s.forwardCreate(w, r, &req, id)
			return
		}
		if e, ok := s.reg.Get(id); ok {
			writeJSON(w, http.StatusCreated, dictCreateResponse{
				ID:          e.ID,
				Patterns:    e.NumPatterns,
				TotalLen:    e.TotalLen,
				Source:      e.Source,
				SnapshotKey: e.SnapKey,
			})
			return
		}
	}

	keyHex := ""
	if s.store != nil && keyKnown {
		keyHex = key.String()
		if lb, err := s.loadFromStore(id, key, "cache"); err == nil {
			s.metrics.cacheHits.Add(1)
			writeJSON(w, http.StatusCreated, dictCreateResponse{
				ID:          lb.entry.ID,
				Patterns:    lb.entry.NumPatterns,
				TotalLen:    lb.entry.TotalLen,
				Source:      lb.entry.Source,
				SnapshotKey: keyHex,
				Evicted:     lb.evicted,
			})
			return
		} else if !errors.Is(err, persist.ErrNotFound) {
			// Invalid entry: GetBundle quarantined and counted it; build
			// and overwrite.
			s.cfg.Log.Printf("cache entry %s rejected: %v", keyHex, err)
		}
		s.metrics.cacheMisses.Add(1)
	}

	start := time.Now()
	b := &persist.Bundle{Patterns: patterns, Options: opts}
	b.Automaton, _ = s.automatonFor(patterns, nil)
	prepNs := time.Since(start).Nanoseconds()
	// Write through before publishing the entry, automaton included.
	if s.store != nil && !s.recordPut(s.store.PutBytes(key, b.Encode())) {
		keyHex = ""
	}
	entry, evicted := s.publish(id, b, "preprocess", keyHex, prepNs)
	writeJSON(w, http.StatusCreated, dictCreateResponse{
		ID:          entry.ID,
		Patterns:    entry.NumPatterns,
		TotalLen:    entry.TotalLen,
		Source:      entry.Source,
		SnapshotKey: keyHex,
		Evicted:     evicted,
	})
}

// entryFor resolves the route's {id} to its entry and answers 404 itself
// when there is none. An entry clusterDict pinned on the request still
// counts after the LRU evicted it: eviction only unlinks, holders keep using
// the entry safely.
func (s *Server) entryFor(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	id := r.PathValue("id")
	if e, ok := s.reg.Get(id); ok {
		return e, true
	}
	if e, ok := r.Context().Value(pinnedEntryKey{}).(*Entry); ok && e.ID == id {
		e.hits.Add(1)
		return e, true
	}
	writeError(w, http.StatusNotFound, "no dictionary %q", id)
	return nil, false
}

func (s *Server) handleDictList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"dicts": s.reg.Infos()})
}

func (s *Server) handleDictGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, e.Info())
}

func (s *Server) handleDictDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.Remove(id) {
		writeError(w, http.StatusNotFound, "no dictionary %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

// Matching ------------------------------------------------------------------

type matchHit struct {
	Pos     int `json:"pos"`
	Pattern int `json:"pattern"`
	Length  int `json:"length"`
}

// matchResponse is the /match reply. appendMatchResponse writes it, byte
// for byte as encoding/json would.
type matchResponse struct {
	N        int        `json:"n"`
	Attempts int        `json:"attempts"`
	Matched  int        `json:"matched"`
	Engine   string     `json:"engine"` // "dense" or "tree"
	Hits     []matchHit `json:"hits"`
}

// appendMatchResponse appends to b the matchResponse of a text of n bytes
// whose matches are evs, newline-terminated as json.Encoder ends a value.
// engine is one of the engine labels, which need no escaping.
func appendMatchResponse(b []byte, n, attempts int, engine string, evs []stream.MatchEvent) []byte {
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"attempts":`...)
	b = strconv.AppendInt(b, int64(attempts), 10)
	b = append(b, `,"matched":`...)
	b = strconv.AppendInt(b, int64(len(evs)), 10)
	b = append(b, `,"engine":"`...)
	b = append(b, engine...)
	b = append(b, `","hits":[`...)
	for i, ev := range evs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"pos":`...)
		b = strconv.AppendInt(b, ev.Pos, 10)
		b = append(b, `,"pattern":`...)
		b = strconv.AppendInt(b, int64(ev.PatternID), 10)
		b = append(b, `,"length":`...)
		b = strconv.AppendInt(b, int64(ev.Length), 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// handleMatch answers the paper's dictionary matching problem (§3) for one
// text against a resident dictionary: for every position with a match, the
// longest pattern starting there. The route is one pass over pooled
// buffers: the body is read once, the text decoded from it (decodeText),
// serveMatch finds the matches as events — a cursor over the compiled
// automaton, certified before its first answer, for dense entries, the Las
// Vegas checked tree walk for the rest — and appendMatchResponse writes the
// reply.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer bytePool.put(body)
	textBuf := bytePool.get()
	defer bytePool.put(textBuf)
	text, ok := decodeText(w, *body, textBuf)
	if !ok {
		return
	}
	evs := eventPool.get()
	defer eventPool.put(evs)
	attempts, engine := 1, engineTree
	var err error
	if len(text) > 0 {
		*evs, attempts, engine, err = s.serveMatch(r.Context(), e, text, *evs)
	}
	if err != nil {
		var de *DegradedError
		if errors.As(err, &de) {
			writeDegraded(w, de)
			return
		}
		if r.Context().Err() != nil {
			s.metrics.timeouts.Add(1)
			writeCtxError(w, err)
			return
		}
		// A *FingerprintExhaustedError (or anything else unexpected) is a
		// server-side failure: 500, and the breaker decides whether the
		// entry keeps serving.
		writeError(w, http.StatusInternalServerError, "matching failed: %v", err)
		return
	}
	reply := bytePool.get()
	defer bytePool.put(reply)
	*reply = appendMatchResponse(*reply, len(text), attempts, engine, *evs)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*reply) // client went away; nothing sensible to do
}

// Optimal static parse (§5) -------------------------------------------------

type parseResponse struct {
	Phrases int     `json:"phrases"`
	Refs    []int32 `json:"refs"`
	Ratio   float64 `json:"ratio"` // text bytes per phrase
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req textPayload
	if !s.decodeJSON(w, r, &req) {
		return
	}
	text, err := req.bytes()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad textB64: %v", err)
		return
	}
	refs, err := e.Parse(r.Context(), text, s.cfg.Procs, s.metrics)
	if err != nil {
		if r.Context().Err() != nil {
			s.metrics.timeouts.Add(1)
			writeCtxError(w, err)
			return
		}
		// The dictionary cannot express this text (§5 requires the prefix
		// property and alphabet coverage) — a client-data problem.
		writeError(w, http.StatusUnprocessableEntity, "no parse: %v", err)
		return
	}
	resp := parseResponse{Phrases: len(refs), Refs: refs}
	if resp.Refs == nil {
		resp.Refs = []int32{}
	}
	if len(refs) > 0 {
		resp.Ratio = float64(len(text)) / float64(len(refs))
	}
	writeJSON(w, http.StatusOK, resp)
}

type expandRequest struct {
	Refs []int32 `json:"refs"`
}

type expandResponse struct {
	N       int    `json:"n"`
	TextB64 string `json:"textB64"`
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req expandRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if int64(len(req.Refs))*int64(e.MaxPatLen) > s.cfg.MaxExpandBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			"expansion could exceed %d bytes", s.cfg.MaxExpandBytes)
		return
	}
	text, err := e.Expand(r.Context(), req.Refs, s.cfg.Procs, s.metrics)
	if err != nil {
		if r.Context().Err() != nil {
			s.metrics.timeouts.Add(1)
			writeCtxError(w, err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "bad reference sequence: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, expandResponse{
		N:       len(text),
		TextB64: base64.StdEncoding.EncodeToString(text),
	})
}

// LZ1 compression (§4) ------------------------------------------------------

type compressResponse struct {
	N        int     `json:"n"`
	Tokens   int     `json:"tokens"`
	Attempts int     `json:"attempts"` // parse-verify rounds (1 = first try)
	DataB64  string  `json:"dataB64"`  // LZ1R1 container, base64
	Ratio    float64 `json:"ratio"`    // container bytes / text bytes
}

// handleCompress runs the §4 work-optimal parallel LZ1 parse. It needs no
// resident dictionary — LZ1 is self-referential — so it lives outside
// /v1/dicts.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	var req textPayload
	if !s.decodeJSON(w, r, &req) {
		return
	}
	text, err := req.bytes()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad textB64: %v", err)
		return
	}
	if err := r.Context().Err(); err != nil {
		s.metrics.timeouts.Add(1)
		writeCtxError(w, err)
		return
	}
	m := pram.New(s.cfg.Procs)
	defer m.Close()
	c, attempts, err := lz.CompressVerified(m, text)
	s.metrics.ChargePRAM("compress", m.Work(), m.Depth())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "compression failed verification: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := lz.EncodeStream(&buf, c); err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	resp := compressResponse{
		N:        c.N,
		Tokens:   len(c.Tokens),
		Attempts: attempts,
		DataB64:  base64.StdEncoding.EncodeToString(buf.Bytes()),
	}
	if len(text) > 0 {
		resp.Ratio = float64(buf.Len()) / float64(len(text))
	}
	writeJSON(w, http.StatusOK, resp)
}

type decompressRequest struct {
	DataB64 string `json:"dataB64"`
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	var req decompressRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	data, err := base64.StdEncoding.DecodeString(req.DataB64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad dataB64: %v", err)
		return
	}
	c, err := lz.DecodeStream(data)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "bad LZ1R1 stream: %v", err)
		return
	}
	if int64(c.N) > s.cfg.MaxExpandBytes || c.N < 0 {
		writeError(w, http.StatusRequestEntityTooLarge,
			"decompressed size %d exceeds %d bytes", c.N, s.cfg.MaxExpandBytes)
		return
	}
	if err := r.Context().Err(); err != nil {
		s.metrics.timeouts.Add(1)
		writeCtxError(w, err)
		return
	}
	m := pram.New(s.cfg.Procs)
	defer m.Close()
	text, err := lz.Uncompress(m, c, lz.ByPointerJumping)
	s.metrics.ChargePRAM("uncompress", m.Work(), m.Depth())
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "corrupt stream: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, expandResponse{
		N:       len(text),
		TextB64: base64.StdEncoding.EncodeToString(text),
	})
}

// Observability -------------------------------------------------------------

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot(s.reg, s.limiter)
	snap.Persist.Enabled = s.store != nil
	if s.store != nil {
		snap.Persist.Quarantines = s.store.Quarantined()
		snap.Persist.QuarantineFails = s.store.QuarantineFails()
	}
	snap.Cluster = s.clusterMetrics()
	snap.Resilience.Rpc = s.rpcMetrics()
	if s.quota != nil {
		snap.Quota = quotaSnapshot{
			Enabled:       true,
			PerTenant:     s.quota.PerTenant(),
			ActiveTenants: s.quota.ActiveTenants(),
			Rejected:      s.quota.Rejected(),
		}
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyzStore is the snapshot-store section of the readiness payload.
type readyzStore struct {
	Enabled         bool  `json:"enabled"`
	Quarantines     int64 `json:"quarantines"`
	QuarantineFails int64 `json:"quarantineFails"`
	SweepValid      int   `json:"sweepValid"`
	SweepRot        int   `json:"sweepQuarantined"`
}

// readyzResponse is the GET /readyz payload.
type readyzResponse struct {
	Status   string      `json:"status"` // "ready" or "degraded"
	Pool     string      `json:"pool"`   // "ok" or the probe failure
	Degraded []string    `json:"degradedDicts,omitempty"`
	Store    readyzStore `json:"store"`
}

// handleReadyz is the readiness probe, distinct from /healthz (liveness):
// healthz answers "is the process up", readyz answers "can it serve
// correctly right now". Not-ready (503 + Retry-After) when the worker-pool
// probe fails or any resident dictionary's circuit breaker is open —
// conditions that resolve themselves (background reseed) or warrant
// draining traffic elsewhere.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyzResponse{Status: "ready", Pool: "ok"}

	// Probe the PRAM pool with a tiny parallel reduction: a wedged or
	// panicking pool surfaces here instead of on user traffic.
	if err := probePool(s.cfg.Procs); err != nil {
		resp.Pool = err.Error()
		resp.Status = "degraded"
	}

	resp.Degraded = s.reg.DegradedIDs()
	if len(resp.Degraded) > 0 {
		resp.Status = "degraded"
	}

	resp.Store.Enabled = s.store != nil
	if s.store != nil {
		resp.Store.Quarantines = s.store.Quarantined()
		resp.Store.QuarantineFails = s.store.QuarantineFails()
		resp.Store.SweepValid = s.sweep.Valid
		resp.Store.SweepRot = s.sweep.Quarantined + s.sweep.PreQuarantined
	}

	if resp.Status != "ready" {
		w.Header().Set("Retry-After", degradedRetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// probePool checks that a worker-pool machine can complete a super-step:
// it sums 0..n-1 with ParallelFor and verifies the closed form. A panic
// inside the pool comes back as a *pram.StepPanic and is reported as an
// error, not propagated.
func probePool(procs int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pool probe panicked: %v", r)
		}
	}()
	m := pram.New(procs)
	defer m.Close()
	const n = 1024
	cells := make([]int64, n)
	m.ParallelFor(n, func(i int) { cells[i] = int64(i) })
	var sum int64
	for _, c := range cells {
		sum += c
	}
	if want := int64(n * (n - 1) / 2); sum != want {
		return fmt.Errorf("pool probe sum mismatch: got %d, want %d", sum, want)
	}
	return nil
}

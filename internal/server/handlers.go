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
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/persist"
	"repro/internal/pram"
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

// decodeJSON reads and decodes the request body into dst, rejecting
// oversized bodies, malformed JSON, and trailing garbage. It writes the
// error response itself and reports whether decoding succeeded.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return false
		}
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
// first: a hit loads the prepared tables with zero PRAM preprocessing
// (source "cache"); a miss preprocesses (§3) and writes the snapshot
// through, so the next boot or identical create hits.
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
			// Invalid entry: Get quarantined and counted it; preprocess and
			// overwrite.
			s.cfg.Log.Printf("cache entry %s rejected: %v", keyHex, err)
		}
		s.metrics.cacheMisses.Add(1)
	}

	m := pram.New(s.cfg.Procs)
	defer m.Close()
	start := time.Now()
	dict := core.Preprocess(m, patterns, opts)
	prepNs := time.Since(start).Nanoseconds()
	s.metrics.ChargePRAM("preprocess", m.Work(), m.Depth())
	// Write through before publishing the entry: the dictionary is still
	// private here, so encoding cannot race a concurrent reseed.
	if s.store != nil {
		if n, err := s.store.Put(key, dict); err != nil {
			s.cfg.Log.Printf("snapshot write-through failed: %v", err)
			keyHex = ""
		} else {
			s.metrics.recordSave(n)
		}
	}
	entry, evicted := s.reg.Insert(id, dict, nil, "preprocess", keyHex, prepNs)
	var upgrade func(*dense.Automaton)
	if keyHex != "" {
		upgrade = s.denseUpgradeFunc(entry, key)
	}
	s.armDense(entry, upgrade)
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

type matchResponse struct {
	N        int        `json:"n"`
	Attempts int        `json:"attempts"`
	Matched  int        `json:"matched"`
	Engine   string     `json:"engine"` // "dense", "tree" or "reference"
	Hits     []matchHit `json:"hits"`
}

// handleMatch answers the paper's dictionary matching problem (§3) for one
// text against a resident dictionary: for every position, the longest
// pattern starting there. Entries with a compiled dense automaton serve from
// the deterministic flat-table path with sampled oracle verification
// (serveMatch, dense.go); the rest run the Las Vegas checked tree walk.
// Large texts are sharded across a worker pool with a pattern-length halo
// on either path.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
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
	resp := matchResponse{N: len(text), Engine: engineTree, Hits: []matchHit{}}
	if len(text) == 0 {
		resp.Attempts = 1
		writeJSON(w, http.StatusOK, resp)
		return
	}
	matches, attempts, engine, err := s.serveMatch(r.Context(), e, text)
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
	resp.Attempts = attempts
	resp.Engine = engine
	for i, mt := range matches {
		if mt.Length > 0 {
			resp.Hits = append(resp.Hits, matchHit{Pos: i, Pattern: int(mt.PatternID), Length: int(mt.Length)})
		}
	}
	resp.Matched = len(resp.Hits)
	writeJSON(w, http.StatusOK, resp)
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
	refs, err := s.serveParse(r.Context(), e, text)
	if err != nil {
		if r.Context().Err() != nil {
			s.metrics.timeouts.Add(1)
			writeCtxError(w, err)
			return
		}
		var pe *batch.PanicError
		if errors.As(err, &pe) {
			// The batch executor died; the client did nothing wrong. Same
			// contract as a panic on the solo path (the recover middleware).
			writeError(w, http.StatusInternalServerError, "internal error")
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
	snap.Batch.Mode = s.cfg.BatchMode
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

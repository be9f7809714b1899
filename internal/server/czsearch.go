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

	"repro/internal/chaos"
	"repro/internal/czsearch"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/stream"
)

// Compressed-domain matching endpoints. Where /v1/dicts/{id}/match reads
// text and /v1/decompress/stream expands a container, these two routes fuse
// the halves: an LZ1R1 container in, dictionary matches over the represented
// text out, without the server ever materializing that text on the fast
// path.
//
//	POST /v1/dicts/{id}/match/compressed           raw LZ1R1 in → NDJSON events out
//	POST /v1/dicts/{id}/match/compressed/buffered  JSON {dataB64} in → JSON hits out
//
// The streaming route follows the /match/stream conventions: no request
// deadline, no MaxBodyBytes cap (memory is bounded by the scanner's retained
// window, not the body size), NDJSON events in position order, and a final
// {"summary":...} line — or {"error":...}, which clients must treat as a
// failed stream since the HTTP status is long committed. The represented
// size from the container header is still capped by MaxExpandBytes: an
// unbounded-window scan retains the whole represented text as copy-source
// history, so the cap is the same zip-bomb guard /v1/decompress enforces.
//
// Engine selection mirrors the dense serving path: entries with a compiled
// automaton serve from the czsearch scanner, the rest decompress through the
// windowed uncompressor fused to the tree-walk matcher (engine "tree",
// counted as a fallback). The scanner itself picks one of two modes from the
// container header (internal/czsearch): the token scanner proper (engine
// "czsearch") when tokens are long enough to pay for their bookkeeping, and
// expand-and-scan on a dense cursor (engine "dense") when they are not. The
// automaton is certified and canary turns taken as on every dense route
// (oracle.go); here a turn expands the container again and walks the whole
// text, which catches a poisoned memo (chaos point czsearch.cache) as well
// as the cursor.

// engineCz labels responses answered by the scanner's token mode; its
// expanded mode answers as engineDense.
const engineCz = "czsearch"

// czFlushEvery bounds how many NDJSON events the streaming route buffers
// before pushing them to the client.
const czFlushEvery = 512

// czConfig is the scan configuration shared by both engines: the streaming
// window bounds retained history, MaxExpandBytes bounds represented output.
func (s *Server) czConfig() czsearch.Config {
	return czsearch.Config{Window: s.cfg.StreamWindow, MaxOutput: s.cfg.MaxExpandBytes}
}

// czRunner is a prepared compressed-domain scan: the container header has
// been validated (so the handler can still choose a proper HTTP status) but
// no token has been consumed yet.
type czRunner struct {
	n    int  // represented size from the container header
	tree bool // the decompress-and-tree-walk fallback, not the scanner
	run  func(ctx context.Context, sink czsearch.Sink) (czsearch.Stats, error)
}

// engine names what served a finished scan.
func (r czRunner) engine(st czsearch.Stats) string {
	switch {
	case r.tree:
		return engineTree
	case st.Expanded:
		return engineDense
	default:
		return engineCz
	}
}

// czPrepare validates the container header on body and returns the runner
// for the fastest correct engine. aut is the entry's automaton, nil when the
// tree walk serves it.
func (s *Server) czPrepare(e *Entry, aut *dense.Automaton, body io.Reader) (czRunner, error) {
	if aut != nil {
		dec, err := lz.NewDecoder(body)
		if err != nil {
			return czRunner{}, err
		}
		sc, _ := e.czPool.Get().(*czsearch.Scanner)
		if sc == nil {
			sc = czsearch.NewScanner(aut, s.czConfig())
		}
		return czRunner{n: dec.N(), run: func(ctx context.Context, sink czsearch.Sink) (czsearch.Stats, error) {
			st, err := sc.Run(ctx, dec, sink)
			// Run resets the scanner up front, so pooling it back even after
			// an error (or a chaos fault) cannot leak state into the next
			// request — the chaos suite pins this.
			e.czPool.Put(sc)
			return st, err
		}}, nil
	}
	f, err := czsearch.NewFallback(body, s.czConfig())
	if err != nil {
		return czRunner{}, err
	}
	return czRunner{n: f.N(), tree: true, run: func(ctx context.Context, sink czsearch.Sink) (czsearch.Stats, error) {
		tm := entryMatcher{e: e, procs: s.cfg.Procs, mt: s.metrics}
		return f.Run(ctx, tm, stream.Config{}, sink)
	}}, nil
}

// czObserve folds one successful scan into the service metrics.
func (s *Server) czObserve(engine string, st czsearch.Stats) {
	switch engine {
	case engineCz:
		s.metrics.czServed.Add(1)
	case engineDense:
		s.metrics.czExpanded.Add(1)
	default:
		s.metrics.czFallback.Add(1)
	}
	s.metrics.czTokens.Add(st.Tokens)
	s.metrics.czBytesRepresented.Add(st.BytesRepresented)
	s.metrics.czBytesTouched.Add(st.BytesTouched)
	s.metrics.czMemoHits.Add(st.MemoHits)
}

// czVerify is a compressed route's canary turn: the teed container is
// expanded and walked (walkCheck) against the events the scan sent. It
// returns errDiverged when they differ.
func (s *Server) czVerify(e *Entry, aut *dense.Automaton, container []byte, got []czsearch.Event) error {
	var text []byte
	c, err := lz.DecodeStream(container)
	if err == nil {
		text, err = lz.Decode(c)
	}
	if err != nil {
		return nil // the scanner consumed it, so this cannot happen; don't indict
	}
	return s.walkCheck(e, aut, text, got, &s.metrics.czVerifyPass, &s.metrics.czVerifyFail)
}

// cappedTee records the bytes written through it up to a cap; past the cap
// it discards everything and reports overflow, so an oversized container
// skips its canary turn instead of buffering unboundedly.
type cappedTee struct {
	buf        bytes.Buffer
	cap        int64
	overflowed bool
}

func (ct *cappedTee) Write(p []byte) (int, error) {
	if !ct.overflowed {
		if int64(ct.buf.Len())+int64(len(p)) > ct.cap {
			ct.overflowed = true
			ct.buf.Reset()
		} else {
			ct.buf.Write(p)
		}
	}
	return len(p), nil
}

// handleMatchCompressed matches a streamed LZ1R1 container against a
// resident dictionary without decompressing it on the fast path. Raw
// container bytes in (chunked encoding welcome, MaxBodyBytes deliberately
// not applied), NDJSON match events out, {"summary":...} trailer on success.
func (s *Server) handleMatchCompressed(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}

	aut, err := e.certified(s)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "compressed match failed: %v", err)
		return
	}
	verify := aut != nil && canaryTurn(&e.czReqs)
	body := io.Reader(r.Body)
	var tee *cappedTee
	if verify {
		// The body streams through once; tee it so the canary can re-expand
		// it after the scan. The cap only guards memory — a container too
		// large to tee just skips its turn.
		tee = &cappedTee{cap: s.cfg.MaxBodyBytes}
		body = io.TeeReader(r.Body, tee)
	}

	// The tee has to wrap the body before the header is read, so the turn is
	// taken first and handed back if the container is rejected unscanned:
	// request 1's turn belongs to the first container scanned.
	unsample := func() {
		if aut != nil {
			e.czReqs.Add(-1)
		}
	}
	run, err := s.czPrepare(e, aut, body)
	if err != nil {
		unsample()
		writeError(w, http.StatusUnprocessableEntity, "bad LZ1R1 stream: %v", err)
		return
	}
	if int64(run.n) > s.cfg.MaxExpandBytes {
		unsample()
		writeError(w, http.StatusRequestEntityTooLarge,
			"represented size %d exceeds %d bytes", run.n, s.cfg.MaxExpandBytes)
		return
	}

	s.metrics.streamStarted.Add(1)
	s.metrics.streamActive.Add(1)
	defer s.metrics.streamActive.Add(-1)

	rc := http.NewResponseController(w)
	// Tokens are still being read from the body while events go out; on
	// HTTP/1.x the first response write would otherwise close the body.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := ndjsonWriter(w)
	defer putNDJSONWriter(bw)

	var events []czsearch.Event // collected only for the canary
	pending := 0
	sink := func(ev czsearch.Event) error {
		if verify {
			events = append(events, ev)
		}
		s.metrics.streamEvents.Add(1)
		if _, err := bw.Write(appendEvent(bw.AvailableBuffer(), ev.Pos, ev.PatternID, ev.Length)); err != nil {
			return err
		}
		if pending++; pending >= czFlushEvery {
			pending = 0
			if err := bw.Flush(); err != nil {
				return err
			}
			if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
				return err
			}
		}
		return nil
	}

	st, err := run.run(r.Context(), sink)
	s.metrics.streamBytes.Add(st.BytesRepresented)
	if err != nil {
		if r.Context().Err() != nil {
			s.metrics.timeouts.Add(1)
			return // client went away; nothing to tell
		}
		// The status line is committed; the error travels as the last line.
		fmt.Fprintf(bw, `{"error":%q}`+"\n", err.Error())
		bw.Flush()
		return
	}
	engine := run.engine(st)
	s.czObserve(engine, st)
	if verify && !tee.overflowed {
		if err := s.czVerify(e, aut, tee.buf.Bytes(), events); err != nil {
			fmt.Fprintf(bw, `{"error":%q}`+"\n", "compressed match failed: "+err.Error())
			bw.Flush()
			return
		}
	}
	sb, _ := json.Marshal(st)
	fmt.Fprintf(bw, `{"summary":{"n":%d,"engine":%q,"stats":%s}}`+"\n", run.n, engine, sb)
	bw.Flush()
}

type matchCompressedRequest struct {
	DataB64 string `json:"dataB64"`
}

type matchCompressedResponse struct {
	N       int            `json:"n"`
	Matched int            `json:"matched"`
	Engine  string         `json:"engine"` // "czsearch", "dense" or "tree"
	Stats   czsearch.Stats `json:"stats"`
	Hits    []matchHit     `json:"hits"`
}

// handleMatchCompressedBuffered is the batch-friendly variant: one JSON
// request carrying the container ({"dataB64":...}), one JSON response with
// every hit. It goes through the ordinary buffered middleware (body cap,
// request deadline), and a canary divergence fails it with a clean 500
// instead of a mid-stream trailer.
func (s *Server) handleMatchCompressedBuffered(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req matchCompressedRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	data, err := base64.StdEncoding.DecodeString(req.DataB64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad dataB64: %v", err)
		return
	}

	aut, err := e.certified(s)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "compressed match failed: %v", err)
		return
	}
	run, err := s.czPrepare(e, aut, bytes.NewReader(data))
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "bad LZ1R1 stream: %v", err)
		return
	}
	if int64(run.n) > s.cfg.MaxExpandBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			"represented size %d exceeds %d bytes", run.n, s.cfg.MaxExpandBytes)
		return
	}

	verify := aut != nil && canaryTurn(&e.czReqs)
	resp := matchCompressedResponse{N: run.n, Hits: []matchHit{}}
	var events []czsearch.Event
	st, err := run.run(r.Context(), func(ev czsearch.Event) error {
		if verify {
			events = append(events, ev)
		}
		resp.Hits = append(resp.Hits, matchHit{Pos: int(ev.Pos), Pattern: int(ev.PatternID), Length: int(ev.Length)})
		return nil
	})
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
		if chaos.IsInjected(err) {
			// A server-side fault, not a client-data problem.
			writeError(w, http.StatusInternalServerError, "compressed match failed: %v", err)
			return
		}
		// Everything else the scan can report is container-level: bad
		// tokens, window violations, a lying header.
		writeError(w, http.StatusUnprocessableEntity, "bad LZ1R1 stream: %v", err)
		return
	}
	resp.Engine = run.engine(st)
	s.czObserve(resp.Engine, st)
	if verify {
		if err := s.czVerify(e, aut, data, events); err != nil {
			writeError(w, http.StatusInternalServerError, "compressed match failed: %v", err)
			return
		}
	}
	resp.Stats = st
	resp.Matched = len(resp.Hits)
	writeJSON(w, http.StatusOK, resp)
}

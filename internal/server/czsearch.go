package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
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
// automaton is certified and canary turns taken and settled as on every
// dense route (oracle.go); here the canary holds the scan's events and, once
// the scan is done, walks the container decoded afresh by lz.DecodeStream
// and lz.Decode — none of the scanner's own expansion — which catches a
// poisoned memo (chaos point czsearch.cache) as well as the cursor. The
// streaming route has sent the events by then: a divergence ends it with an
// error trailer in place of the summary.

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
// tree walk serves it. A bad header (422) or a represented size over
// MaxExpandBytes (413) is answered on w, and reported as false.
func (s *Server) czPrepare(w http.ResponseWriter, e *Entry, aut *dense.Automaton, body io.Reader) (czRunner, bool) {
	var run czRunner
	if aut != nil {
		dec, err := lz.NewDecoder(body)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "bad LZ1R1 stream: %v", err)
			return run, false
		}
		sc, _ := e.czPool.Get().(*czsearch.Scanner)
		if sc == nil {
			sc = czsearch.NewScanner(aut, s.czConfig())
		}
		run = czRunner{n: dec.N(), run: func(ctx context.Context, sink czsearch.Sink) (czsearch.Stats, error) {
			st, err := sc.Run(ctx, dec, sink)
			// Run resets the scanner up front, so pooling it back even after
			// an error (or a chaos fault) cannot leak state into the next
			// request — the chaos suite pins this.
			e.czPool.Put(sc)
			return st, err
		}}
	} else {
		f, err := czsearch.NewFallback(body, s.czConfig())
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "bad LZ1R1 stream: %v", err)
			return run, false
		}
		run = czRunner{n: f.N(), tree: true, run: func(ctx context.Context, sink czsearch.Sink) (czsearch.Stats, error) {
			tm := entryMatcher{e: e, procs: s.cfg.Procs, mt: s.metrics}
			return f.Run(ctx, tm, stream.Config{}, sink)
		}}
	}
	if int64(run.n) > s.cfg.MaxExpandBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "represented size %d exceeds %d bytes", run.n, s.cfg.MaxExpandBytes)
		return run, false
	}
	return run, true
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

// czCheck ends a compressed route's canary turn c, which has held the
// scan's events: the canary walks the container decoded afresh. A container
// too large to keep (nil) skips the turn, unless the entry has diverged.
func (s *Server) czCheck(e *Entry, c *stream.Canary, container []byte) error {
	if container == nil && e.diverged.Load() {
		return errTooLargeToCheck
	}
	var text []byte
	cz, err := lz.DecodeStream(container)
	if err == nil {
		text, err = lz.Decode(cz)
	}
	if err != nil {
		return nil // the scanner consumed it, so this cannot happen; don't indict
	}
	return s.settle(e, c, c.Check(text), &s.metrics.czVerifyPass, &s.metrics.czVerifyFail)
}

// errTooLargeToCheck fails a streamed container too large to tee for its
// canary turn on an entry that has diverged, where no answer goes unchecked.
var errTooLargeToCheck = errors.New("the container is too large for the canary's check, which every request on this entry takes since a divergence")

// cappedTee keeps the bytes written through it up to a cap, and none (nil)
// once they pass it, so an oversized container skips its canary turn
// instead of buffering unboundedly.
type cappedTee struct {
	kept []byte
	cap  int64
}

func (ct *cappedTee) Write(p []byte) (int, error) {
	if ct.cap -= int64(len(p)); ct.cap < 0 {
		ct.kept = nil
	} else {
		ct.kept = append(ct.kept, p...)
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
	c := e.canary(&e.czReqs, aut)
	body := io.Reader(r.Body)
	var tee *cappedTee
	if c != nil {
		// The body streams through once; tee it so the canary can decode it
		// after the scan. The cap only guards memory — a container too
		// large to tee just skips its turn, unless the entry has diverged.
		tee = &cappedTee{cap: s.cfg.MaxBodyBytes}
		body = io.TeeReader(r.Body, tee)
	}

	// The tee has to wrap the body before the header is read, so the turn is
	// taken first and handed back if the container is rejected unscanned:
	// request 1's turn belongs to the first container scanned.
	run, ok := s.czPrepare(w, e, aut, body)
	if !ok {
		if aut != nil {
			e.czReqs.Add(-1)
		}
		return
	}

	rep := s.startNDJSON(w, czFlushEvery)
	defer rep.close()
	sink := czsearch.Sink(rep.MatchEvent)
	if c != nil {
		sink = func(ev czsearch.Event) error {
			c.Hold(ev)
			return rep.MatchEvent(ev)
		}
	}
	st, err := run.run(r.Context(), sink)
	s.metrics.streamBytes.Add(st.BytesRepresented)
	engine := run.engine(st)
	if err == nil {
		s.czObserve(engine, st)
		if c != nil {
			err = s.czCheck(e, c, tee.kept)
		}
	}
	sb, _ := json.Marshal(st)
	rep.end(r.Context(), err, `{"summary":{"n":%d,"engine":%q,"stats":%s}}`, run.n, engine, sb)
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
	run, ok := s.czPrepare(w, e, aut, bytes.NewReader(data))
	if !ok {
		return
	}

	c := e.canary(&e.czReqs, aut)
	resp := matchCompressedResponse{N: run.n, Hits: []matchHit{}}
	st, err := run.run(r.Context(), func(ev czsearch.Event) error {
		if c != nil {
			c.Hold(ev)
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
	if c != nil {
		if err := s.czCheck(e, c, data); err != nil {
			writeError(w, http.StatusInternalServerError, "compressed match failed: %v", err)
			return
		}
	}
	resp.Stats = st
	resp.Matched = len(resp.Hits)
	writeJSON(w, http.StatusOK, resp)
}

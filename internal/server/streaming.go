package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/pram"
	"repro/internal/stream"
)

// Streaming endpoints. Where the buffered /v1 handlers read the whole body,
// cap it at MaxBodyBytes, and answer with one JSON document, these two
// routes pump the body through internal/stream with O(segment + halo)
// resident text, so a client can push a text far larger than MaxBodyBytes
// (the cap deliberately does not apply — memory is bounded by the pipeline,
// not by the body size):
//
//	POST /v1/dicts/{id}/match/stream   raw text in  → NDJSON events out
//	POST /v1/decompress/stream         LZ1R1 in     → raw bytes out
//
// NDJSON protocol: one {"pos","pattern","length"} object per match, in
// position order, flushed at every segment boundary; the final line is
// either {"summary":{...}} on success or {"error":"..."} — clients must
// treat a missing summary as a failed stream (the HTTP status is already
// committed when a mid-stream error occurs).

// entryMatcher adapts a registry entry to stream.TextMatcher: per-window
// checked (Las Vegas) matching under the entry's read lock, charging the
// service PRAM ledgers. It serves entries without an automaton.
type entryMatcher struct {
	e     *Entry
	procs int
	mt    *Metrics
}

func (em entryMatcher) MaxPatternLen() int { return em.e.MaxPatLen }

func (em entryMatcher) MatchWindow(ctx context.Context, window []byte) ([]core.Match, int, pram.Counters, error) {
	return em.e.MatchChecked(ctx, window, em.procs, em.mt)
}

// appendEvent appends one NDJSON match-event line — the encoding of every
// event on /match/stream and /match/compressed.
func appendEvent(b []byte, pos int64, pattern, length int32) []byte {
	b = append(b, `{"pos":`...)
	b = strconv.AppendInt(b, pos, 10)
	b = append(b, `,"pattern":`...)
	b = strconv.AppendInt(b, int64(pattern), 10)
	b = append(b, `,"length":`...)
	b = strconv.AppendInt(b, int64(length), 10)
	return append(b, "}\n"...)
}

// ndjsonWriters recycles the 32 KiB response writers of the NDJSON routes,
// which would otherwise be a fresh allocation per request.
var ndjsonWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// ndjsonWriter returns a pooled writer onto w. The handler hands it back
// with putNDJSONWriter when it returns, having flushed what it meant to send.
func ndjsonWriter(w io.Writer) *bufio.Writer {
	bw := ndjsonWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putNDJSONWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	ndjsonWriters.Put(bw)
}

// matchStreamSink writes NDJSON events and flushes per segment.
type matchStreamSink struct {
	bw *bufio.Writer
	rc *http.ResponseController
	mt *Metrics
}

func (k *matchStreamSink) MatchEvent(e stream.MatchEvent) error {
	k.mt.streamEvents.Add(1)
	// Encoded in place in the writer's free space when the line fits.
	_, err := k.bw.Write(appendEvent(k.bw.AvailableBuffer(), e.Pos, e.PatternID, e.Length))
	return err
}

func (k *matchStreamSink) SegmentDone(info stream.SegmentInfo) error {
	k.mt.streamSegments.Add(1)
	k.mt.streamBytes.Add(int64(info.Finalized))
	if err := k.bw.Flush(); err != nil {
		return err
	}
	// Push the segment's events to the client now; a sink that only fills
	// the HTTP buffer would batch the whole stream. Not all writers can
	// flush (e.g. some test recorders) — that is fine.
	if err := k.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

// streamSummary is the NDJSON trailer on success.
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

// handleMatchStream matches a streamed text — raw bytes, chunked encoding
// welcome — against a resident dictionary. The registration pattern is
// "POST /v1/dicts/{id}/match/stream"; the optional ?segment=N query
// overrides stream.DefaultSegment within [1 KiB, 64 MiB].
func (s *Server) handleMatchStream(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	segSize := stream.DefaultSegment
	if q := r.URL.Query().Get("segment"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1<<10 || v > 64<<20 {
			writeError(w, http.StatusBadRequest, "segment must be an integer in [%d, %d]", 1<<10, 64<<20)
			return
		}
		segSize = v
	}
	// An entry that can serve nothing answers before the stream starts: a
	// 500 whose body is the error line.
	a, err := e.certified(s)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "matching failed: %v", err)
		return
	}

	s.metrics.streamStarted.Add(1)
	s.metrics.streamActive.Add(1)
	defer s.metrics.streamActive.Add(-1)

	rc := http.NewResponseController(w)
	// The pipeline reads the request body while the response streams; on
	// HTTP/1.x the first response write would otherwise close the body.
	// (HTTP/2 is full duplex natively; a not-supported error is fine.)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	sink := &matchStreamSink{bw: ndjsonWriter(w), rc: rc, mt: s.metrics}
	defer putNDJSONWriter(sink.bw)
	cfg := stream.Config{SegmentBytes: segSize}

	// Engine choice, by serveMatch's rule: the compiled automaton when the
	// entry has one, else the checked tree walk. A dense stream counts as
	// one dense request and takes the same canary turns; a divergence ends
	// it with an error trailer.
	var st stream.Stats
	engine := engineTree
	if a == nil {
		if s.cfg.DenseMode != DenseOff {
			s.metrics.denseFallback.Add(1)
		}
		tree := entryMatcher{e: e, procs: s.cfg.Procs, mt: s.metrics}
		st, err = stream.Match(r.Context(), tree, r.Body, sink, cfg)
	} else {
		engine = engineDense
		var canary *dense.Automaton
		if canaryTurn(&e.denseReqs) {
			canary = a
		}
		st, err = stream.MatchDense(r.Context(), a, canary, r.Body, sink, cfg)
		s.metrics.ChargePRAM("match", st.Work, st.Depth)
		switch {
		case errors.Is(err, stream.ErrDiverged):
			s.metrics.denseVerifyFail.Add(1)
			e.logf("entry %s: stream events diverged from the canary's walk; the request failed", e.ID)
		case err == nil:
			s.metrics.denseServed.Add(1)
			if canary != nil {
				s.metrics.denseVerifyPass.Add(1)
			}
		}
	}
	if err != nil {
		if r.Context().Err() != nil {
			// Client went away or the connection died: nothing to tell.
			s.metrics.timeouts.Add(1)
			return
		}
		// The status line is long gone; the error travels as the last
		// NDJSON line instead.
		fmt.Fprintf(sink.bw, `{"error":%q}`+"\n", err.Error())
		sink.bw.Flush()
		return
	}
	fmt.Fprintf(sink.bw, `{"summary":{"n":%d,"engine":%q,"segments":%d,"events":%d,"rounds":%d,"work":%d,"depth":%d,"maxResident":%d}}`+"\n",
		st.TextBytes, engine, st.Segments, st.Events, st.Rounds, st.Work, st.Depth, st.MaxResident)
	sink.bw.Flush()
}

// countingWriter tracks whether any body bytes were committed, so error
// paths know whether a proper status can still be sent.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// handleDecompressStream expands a streamed LZ1R1 container to raw bytes
// with the windowed uncompressor: O(1) tokens plus StreamWindow retained
// history resident, output capped at MaxExpandBytes. Container header
// problems still get a proper HTTP status; token-level corruption after
// output has started can only truncate the stream (clients compare against
// the X-Uncompressed-Length header).
func (s *Server) handleDecompressStream(w http.ResponseWriter, r *http.Request) {
	u, err := stream.NewUncompressor(r.Body, stream.UncompressConfig{
		Window:    s.cfg.StreamWindow,
		MaxOutput: s.cfg.MaxExpandBytes,
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "bad LZ1R1 stream: %v", err)
		return
	}
	if int64(u.N()) > s.cfg.MaxExpandBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			"decompressed size %d exceeds %d bytes", u.N(), s.cfg.MaxExpandBytes)
		return
	}

	s.metrics.streamStarted.Add(1)
	s.metrics.streamActive.Add(1)
	defer s.metrics.streamActive.Add(-1)

	// Same full-duplex requirement as the match stream: tokens are still
	// being read from the body while decoded bytes go out.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Uncompressed-Length", strconv.Itoa(u.N()))
	cw := &countingWriter{w: w}
	st, err := u.Run(r.Context(), cw)
	s.metrics.ChargePRAM("uncompress", st.Work, st.Depth)
	s.metrics.streamEvents.Add(st.Events)
	s.metrics.streamBytes.Add(st.TextBytes)
	if err != nil {
		if r.Context().Err() != nil {
			s.metrics.timeouts.Add(1)
			return
		}
		if cw.n == 0 {
			writeError(w, http.StatusUnprocessableEntity, "corrupt stream: %v", err)
			return
		}
		s.cfg.Log.Printf("decompress stream aborted after %d bytes: %v", cw.n, err)
	}
}

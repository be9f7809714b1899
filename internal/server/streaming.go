package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/stream"
)

// Streaming endpoints. Where the buffered /v1 handlers read the whole body,
// cap it at MaxBodyBytes, and answer with one JSON document, these routes
// pump the body through internal/stream with O(segment + halo) resident
// text, so a client can push a text far larger than MaxBodyBytes (the cap
// deliberately does not apply — memory is bounded by the pipeline, not by
// the body size):
//
//	POST /v1/dicts/{id}/match/stream   raw text in  → NDJSON events out
//	POST /v1/decompress/stream         LZ1R1 in     → raw bytes out
//
// NDJSON protocol (ndjsonReply, shared with /match/compressed): one
// {"pos","pattern","length"} object per match, in position order, flushed at
// every segment boundary; the final line is either {"summary":{...}} on
// success or {"error":"..."} — clients must treat a missing summary as a
// failed stream (the HTTP status is already committed when a mid-stream
// error occurs). A dense stream's canary turn (oracle.go) sends a segment's
// events only once the canary's walk has found the same ones.

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

// ndjsonReply is one NDJSON reply under way, the protocol of /match/stream
// and /match/compressed: it counts the stream while it runs, writes event
// lines into a pooled writer, flushes them to the client every `every`
// events (0: at segment ends only), and ends with a summary or an error
// trailer. As a stream.MatchSink and SegmentObserver it flushes per segment.
type ndjsonReply struct {
	bw      *bufio.Writer
	rc      *http.ResponseController
	mt      *Metrics
	every   int
	pending int
}

// startNDJSON starts an NDJSON reply on w; the caller defers its close.
func (s *Server) startNDJSON(w http.ResponseWriter, every int) *ndjsonReply {
	s.metrics.streamStarted.Add(1)
	s.metrics.streamActive.Add(1)
	rc := http.NewResponseController(w)
	// The body is still being read while the reply streams; on HTTP/1.x the
	// first response write would otherwise close it. (HTTP/2 is full duplex
	// natively; a not-supported error is fine.)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := ndjsonWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	return &ndjsonReply{bw: bw, rc: rc, mt: s.metrics, every: every}
}

func (k *ndjsonReply) MatchEvent(e stream.MatchEvent) error {
	k.mt.streamEvents.Add(1)
	// Encoded in place in the writer's free space when the line fits.
	if _, err := k.bw.Write(appendEvent(k.bw.AvailableBuffer(), e.Pos, e.PatternID, e.Length)); err != nil {
		return err
	}
	if k.pending++; k.every == 0 || k.pending < k.every {
		return nil
	}
	return k.flush()
}

func (k *ndjsonReply) SegmentDone(info stream.SegmentInfo) error {
	k.mt.streamSegments.Add(1)
	k.mt.streamBytes.Add(int64(info.Finalized))
	return k.flush()
}

// flush pushes what is buffered to the client now, where the HTTP buffer
// would batch the whole stream; a writer that cannot flush is fine.
func (k *ndjsonReply) flush() error {
	k.pending = 0
	if err := k.bw.Flush(); err != nil {
		return err
	}
	if err := k.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

// end writes the reply's last line: the summary, format filled with args,
// when err is nil; else the error trailer — the status line is long gone —
// or nothing when the client went away (ctx is done), which is counted.
func (k *ndjsonReply) end(ctx context.Context, err error, summary string, args ...any) {
	switch {
	case err == nil:
		fmt.Fprintf(k.bw, summary+"\n", args...)
	case ctx.Err() != nil:
		k.mt.timeouts.Add(1)
		return
	default:
		fmt.Fprintf(k.bw, `{"error":%q}`+"\n", err.Error())
	}
	k.bw.Flush()
}

// close hands the writer back and counts the stream finished.
func (k *ndjsonReply) close() {
	k.bw.Reset(nil)
	ndjsonWriters.Put(k.bw)
	k.mt.streamActive.Add(-1)
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

	rep := s.startNDJSON(w, 0)
	defer rep.close()
	cfg := stream.Config{SegmentBytes: segSize}

	// Engine choice, by serveMatch's rule: the compiled automaton when the
	// entry has one, else the checked tree walk. A dense stream counts as
	// one dense request and takes the same canary turns.
	var st stream.Stats
	engine := engineTree
	if a == nil {
		if s.cfg.DenseMode != DenseOff {
			s.metrics.denseFallback.Add(1)
		}
		tree := entryMatcher{e: e, procs: s.cfg.Procs, mt: s.metrics}
		st, err = stream.Match(r.Context(), tree, r.Body, rep, cfg)
	} else {
		engine = engineDense
		c := e.canary(&e.denseReqs, a)
		st, err = stream.MatchDense(r.Context(), a, c, r.Body, rep, cfg)
		s.metrics.ChargePRAM("match", st.Work, st.Depth)
		if c != nil {
			err = s.settle(e, c, err, &s.metrics.denseVerifyPass, &s.metrics.denseVerifyFail)
		}
		if err == nil {
			s.metrics.denseServed.Add(1)
		}
	}
	rep.end(r.Context(), err, `{"summary":{"n":%d,"engine":%q,"segments":%d,"events":%d,"rounds":%d,"work":%d,"depth":%d,"maxResident":%d}}`,
		st.TextBytes, engine, st.Segments, st.Events, st.Rounds, st.Work, st.Depth, st.MaxResident)
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

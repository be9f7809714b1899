// Package stream is the bounded-memory streaming pipeline over the paper's
// batch algorithms: dictionary matching (§3), static-dictionary parsing
// (§5), and LZ1 decompression (§4.2) on texts that never fit in memory.
//
// The batch algorithms are window-local in a precise sense: every
// per-position output — S[i], B[i], M[i] — depends on at most
// MaxPatternLen() bytes of lookahead from i. The pipeline exploits that by
// cutting the input into segments of Config.SegmentBytes and prefixing each
// with a carry ("halo") of MaxPatternLen()-1 bytes from the previous
// window. Positions whose full lookahead fits inside the window are
// *finalized*: their window-local outputs provably equal the full-text
// outputs, so they are emitted exactly once, rebased to absolute offsets.
// The trailing halo positions are recomputed — and emitted — by the next
// window, where they are authoritative; this is the dedup of halo
// duplicates. Resident text is O(SegmentBytes + MaxPatternLen) regardless
// of input length.
//
// MatchDense is the exception that needs no halo: a compiled automaton's
// cursor carries its state across segments, so each segment is scanned
// once, in place, and only the cursor's ring of MaxPatternLen() open
// positions crosses a boundary.
//
// Reading and computing are double-buffered: a producer goroutine reads
// segment i+1 from the io.Reader while the consumer runs the PRAM
// algorithms on window i, with backpressure through a bounded channel (two
// segment buffers in flight, total, each pooled across runs and grown on
// demand to the segment size — see bufPool). Per-window PRAM work/depth ledger
// deltas are aggregated into Stats — the streamed run charges the same
// work as the batch run on the same text (plus the halo recompute) but
// sequential-composes the windows, trading depth for memory.
package stream

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"sync"

	"repro/internal/chaos"
)

// DefaultSegment is the segment size used when Config.SegmentBytes is zero.
const DefaultSegment = 1 << 20

// Config controls the segment pipeline.
type Config struct {
	// SegmentBytes is the number of fresh text bytes per window (the halo
	// is carried on top of it). Zero means DefaultSegment. Values smaller
	// than the longest pattern are legal: the carry then grows across
	// windows until it spans a full halo, and finalization lags
	// accordingly.
	SegmentBytes int
}

func (c Config) segmentSize() int {
	if c.SegmentBytes < 1 {
		return DefaultSegment
	}
	return c.SegmentBytes
}

// Stats is the aggregated ledger of one streaming run.
type Stats struct {
	Segments    int64 // windows processed
	TextBytes   int64 // match/parse: input text bytes; uncompress: output bytes
	WindowBytes int64 // total bytes presented to the algorithms (includes halo recompute)
	MaxResident int   // peak resident window (or history) bytes — the memory bound
	Events      int64 // match events, phrases, or tokens emitted
	Rounds      int   // Las Vegas verification rounds across all windows (match only)
	Work        int64 // aggregated PRAM work over all windows
	Depth       int64 // aggregated PRAM depth (windows compose sequentially)

	// Uncompress only.
	FarthestBack int64 // longest back-reference distance seen
	Spills       int64 // copies beyond the nominal window served from retained slack
}

// SegmentInfo describes one completed window; sinks that also implement
// SegmentObserver receive it after the window's events (a natural flush
// point).
type SegmentInfo struct {
	Index     int64 // 0-based window index
	Base      int64 // absolute offset of the window's first byte
	WindowLen int   // carry + fresh bytes
	Finalized int   // positions emitted by this window
	Last      bool
}

// SegmentObserver is optionally implemented by sinks that want per-window
// notification — the streaming server uses it to flush NDJSON per segment
// and to tick its per-stream metrics.
type SegmentObserver interface {
	SegmentDone(SegmentInfo) error
}

// segment is one producer→consumer hand-off.
type segment struct {
	buf  []byte
	last bool
	err  error
}

// WindowPanicError is the typed error a streaming run returns when the
// per-window computation panicked (a pram.StepPanic surfacing from a worker,
// or any other body panic). The pipeline converts the panic to an error at
// the window boundary so a service can end the stream with an error trailer
// — and a CLI with a diagnostic — instead of dying: upstream of this
// conversion nothing has been half-emitted, because events for a window are
// only sent after its computation returns.
type WindowPanicError struct {
	Value any
	Stack []byte
}

func (e *WindowPanicError) Error() string {
	return fmt.Sprintf("stream: window computation panicked: %v", e.Value)
}

// Unwrap exposes error-typed panic values (e.g. a *pram.StepPanic) to
// errors.Is/As.
func (e *WindowPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// firstBuffer is the capacity a fresh segment or window buffer starts at;
// it doubles from there, up to the configured size, as the input proves to
// be that long. The pipeline never allocates for bytes it has not read: a
// one-byte body costs one firstBuffer whatever SegmentBytes says (a server
// lets clients choose that, up to 64 MiB), or nothing with a pooled buffer.
const firstBuffer = 4 << 10

// maxPooled caps the buffers bufPool keeps, as the server caps its pool of
// request bodies: a buffer grown past it, for a segment a client asked to
// be that large, is left to the GC rather than pinned behind the ordinary
// ones.
const maxPooled = 4 << 20

// bufPool recycles segment and window buffers across runs. A run takes each
// buffer as it first needs one and hands back every buffer no goroutine can
// write to any more, so in a steady stream of requests each buffer arrives
// already at the size the input needs, and none is grown by doubling.
var bufPool sync.Pool

// getBuf returns an empty pooled buffer, or nil when the pool has none.
func getBuf() []byte {
	if b, ok := bufPool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return nil
}

// putBuf gives buf to the pool. The caller must be its last user.
func putBuf(buf []byte) {
	if buf == nil || cap(buf) > maxPooled {
		return
	}
	buf = buf[:0]
	bufPool.Put(&buf)
}

// growTo returns buf with room for need bytes, at least doubling its
// capacity but never past limit (need <= limit), contents kept.
func growTo(buf []byte, need, limit int) []byte {
	if need <= cap(buf) {
		return buf
	}
	c := min(max(2*cap(buf), firstBuffer, need), limit)
	grown := make([]byte, len(buf), c)
	copy(grown, buf)
	return grown
}

// readSegment reads the next segSize bytes of r into buf (contents
// discarded, capacity reused and grown on demand), with io.ReadFull's
// contract: a full segment comes back with a nil error, a short one with
// the error that ended it (io.EOF at the end of the input). It never reads
// past segSize, however large a pooled buffer is.
func readSegment(r io.Reader, buf []byte, segSize int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < segSize {
		buf = growTo(buf, len(buf)+1, segSize)
		n, err := r.Read(buf[len(buf):min(cap(buf), segSize)])
		buf = buf[:len(buf)+n]
		if err != nil && len(buf) < segSize {
			return buf, err
		}
	}
	return buf, nil
}

// runWindows drives the double-buffered read loop. fn sees each window
// (carry + fresh segment; a negative halo is none), the absolute offset of
// its first byte, and the count of finalized positions; it must not retain
// the window slice. Then
// sink, if it is a SegmentObserver, is told the window is done.
// Cancellation is observed at window granularity; a blocked Read is only
// abandoned when the underlying reader fails (e.g. the request body closes).
func runWindows(ctx context.Context, r io.Reader, segSize, halo int, st *Stats, sink any, fn func(window []byte, base int64, final int, last bool) error) error {
	segs := make(chan segment, 1)
	free := make(chan []byte, 2)
	done := make(chan struct{})
	// Two segment buffers circulate; each is taken from the pool by its
	// first read.
	free <- nil
	free <- nil

	go func() {
		defer close(segs)
		for {
			var buf []byte
			select {
			case buf = <-free:
			case <-done:
				return
			}
			if buf == nil {
				buf = getBuf()
			}
			chaos.Sleep(chaos.StreamStall) // injected producer stall (chaos builds)
			buf, err := readSegment(r, buf, segSize)
			s := segment{buf: buf}
			switch err {
			case nil:
			case io.EOF:
				s.last = true
			default:
				s.err = err
			}
			if s.err == nil && chaos.Fire(chaos.StreamTruncate) {
				// Injected mid-stream truncation: the reader dies with half a
				// segment delivered, like a dropped connection.
				s.buf = s.buf[:len(buf)/2]
				s.err = &chaos.InjectedError{Point: chaos.StreamTruncate, Op: "read"}
				s.last = false
			}
			select {
			case segs <- s:
			case <-done:
				return
			}
			if s.last || s.err != nil {
				return
			}
		}
	}()

	defer func() {
		close(done)
		reclaim(free, segs)
	}()
	obs, _ := sink.(SegmentObserver)
	return consumeWindows(ctx, segs, free, segSize, max(halo, 0), st, obs, fn)
}

// reclaim gives back to the pool the segment buffers of a finished run that
// no goroutine can write to any more: those waiting in free that the
// producer, told to stop, did not take, and a segment it sent that nobody
// received. A buffer the producer still holds — on an aborted stream, one
// it is blocked reading into — is left to the GC.
func reclaim(free <-chan []byte, segs <-chan segment) {
	for {
		select {
		case buf := <-free:
			putBuf(buf)
		case s, ok := <-segs:
			if !ok {
				segs = nil // closed: the producer has returned
				continue
			}
			putBuf(s.buf)
		default:
			return
		}
	}
}

// callWindow runs one window computation, and then obs (if any), with
// panic containment (see WindowPanicError).
func callWindow(fn func([]byte, int64, int, bool) error, obs SegmentObserver, window []byte, info SegmentInfo) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &WindowPanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if err := fn(window, info.Base, info.Finalized, info.Last); err != nil || obs == nil {
		return err
	}
	return obs.SegmentDone(info)
}

// consumeWindows is the consumer half of runWindows. With a halo it
// assembles each window — the carry of the previous one plus the fresh
// segment — in a buffer of its own and hands the segment buffer back before
// computing; with none (a matcher that carries its state instead of
// re-reading text) the window is the segment buffer itself, so the input's
// bytes are copied nowhere between the reader and fn. The buffers it holds
// when it returns, the window buffer and a segment not handed back, go to
// the pool.
func consumeWindows(ctx context.Context, segs <-chan segment, free chan<- []byte, segSize, halo int, st *Stats, obs SegmentObserver, fn func(window []byte, base int64, final int, last bool) error) error {
	var assembled, held []byte
	defer func() {
		putBuf(held)
		putBuf(assembled)
	}()
	var base int64
	carry := 0
	for s := range segs {
		held = s.buf
		if s.err != nil {
			return s.err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		window := s.buf
		if halo > 0 {
			if assembled == nil {
				assembled = getBuf()
			}
			assembled = growTo(assembled[:carry], carry+len(s.buf), segSize+halo)
			assembled = append(assembled, s.buf...)
			window = assembled
			if !s.last {
				// The producer reads the next segment while fn runs on this
				// window.
				free <- s.buf
				held = nil
			}
		}
		st.Segments++
		st.TextBytes += int64(len(s.buf))
		st.WindowBytes += int64(len(window))
		if len(window) > st.MaxResident {
			st.MaxResident = len(window)
		}
		final := len(window)
		if !s.last {
			final = max(len(window)-halo, 0)
		}
		info := SegmentInfo{Index: st.Segments - 1, Base: base, WindowLen: len(window), Finalized: final, Last: s.last}
		if err := callWindow(fn, obs, window, info); err != nil {
			return err
		}
		carry = len(window) - final
		copy(window, window[final:])
		base += int64(final)
		if s.last {
			return nil
		}
		if halo == 0 {
			// The other buffer has been filling meanwhile.
			free <- s.buf
			held = nil
		}
	}
	return ctx.Err()
}

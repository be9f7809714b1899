package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/lz"
)

// ErrWindowExceeded reports a copy token that reaches back beyond the
// retained history of a windowed uncompression.
var ErrWindowExceeded = errors.New("stream: copy reference outside retained window")

// UncompressConfig controls streaming decompression.
type UncompressConfig struct {
	// Window is the number of trailing output bytes retained for copy
	// tokens to reference. Zero retains everything (output still streams
	// incrementally, but memory grows with the text). LZ1 parses produced
	// by lz.Compress may reference arbitrarily far back, so a finite
	// Window is only sound for inputs known to be produced with bounded
	// back-references; violations surface as ErrWindowExceeded.
	Window int
	// MaxOutput, if positive, aborts once the output would exceed it —
	// zip-bomb protection for the service endpoint.
	MaxOutput int64
}

// Uncompressor incrementally decodes an LZ1R1 container: O(1) tokens plus
// the retained history resident, versus the batch path (DecodeStream +
// lz.Uncompress) which holds the full token slice and output. Sequential
// by construction — the stream trades §4.2's O(log n) depth for
// bounded memory.
type Uncompressor struct {
	dec *lz.Decoder
	cfg UncompressConfig
}

// NewUncompressor validates the container header on r. Header errors are
// returned here — before the caller commits to a response status — while
// token-level corruption surfaces from Run.
func NewUncompressor(r io.Reader, cfg UncompressConfig) (*Uncompressor, error) {
	dec, err := lz.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return &Uncompressor{dec: dec, cfg: cfg}, nil
}

// N returns the header's original length.
func (u *Uncompressor) N() int { return u.dec.N() }

// Run decodes every token, writing output to w as it is produced. The
// history is trimmed lazily: only when it exceeds twice the window is it
// cut back to exactly the window, so copies up to 2·Window back may still
// be served (counted as Spills when beyond the nominal Window).
func (u *Uncompressor) Run(ctx context.Context, w io.Writer) (Stats, error) {
	var st Stats
	bw := bufio.NewWriterSize(w, 64<<10)
	win := u.cfg.Window
	hist := make([]byte, 0, 64<<10)
	var histStart int64 // absolute offset of hist[0]
	for tok := 0; ; tok++ {
		if tok&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return st, err
			}
		}
		t, err := u.dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		st.Events++
		produced := 1
		if !t.IsLiteral() {
			produced = int(t.Len)
		}
		if u.cfg.MaxOutput > 0 && st.TextBytes+int64(produced) > u.cfg.MaxOutput {
			return st, fmt.Errorf("stream: output exceeds cap %d", u.cfg.MaxOutput)
		}
		if t.IsLiteral() {
			hist = append(hist, t.Lit)
		} else {
			total := histStart + int64(len(hist))
			src := int64(t.Src)
			if src < 0 || src >= total {
				return st, fmt.Errorf("lz: token source %d out of range (have %d bytes)", t.Src, total)
			}
			if back := total - src; back > st.FarthestBack {
				st.FarthestBack = back
			}
			if src < histStart {
				return st, fmt.Errorf("%w: source %d precedes retained offset %d", ErrWindowExceeded, src, histStart)
			}
			if win > 0 && total-src > int64(win) {
				st.Spills++
			}
			// Self-referencing copies (Src+Len past the current end) are
			// legal LZ1; CopyWithin expands them periodically.
			at := len(hist)
			hist = slices.Grow(hist, produced)[:at+produced]
			lz.CopyWithin(hist, at, int(src-histStart), produced)
		}
		if _, err := bw.Write(hist[len(hist)-produced:]); err != nil {
			return st, err
		}
		st.TextBytes += int64(produced)
		if len(hist) > st.MaxResident {
			st.MaxResident = len(hist)
		}
		if win > 0 && len(hist) > 2*win {
			cut := len(hist) - win
			histStart += int64(cut)
			copy(hist, hist[cut:])
			hist = hist[:win]
		}
	}
	if st.TextBytes != int64(u.dec.N()) {
		return st, fmt.Errorf("lz: decoded %d bytes, header says %d", st.TextBytes, u.dec.N())
	}
	// Ledger: the stream is a sequential scan — work and depth both linear
	// in the output, versus the batch path's O(n) work / polylog depth.
	st.Work += st.TextBytes
	st.Depth += st.TextBytes
	return st, bw.Flush()
}

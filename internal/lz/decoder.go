package lz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrNotLZ1R1 reports input that does not begin with the LZ1R1 container
// magic. Callers that accept arbitrary files (cmd/dictmatch -compressed, the
// compressed-matching endpoint) test for it with errors.Is to distinguish
// "wrong format" from mid-stream corruption.
var ErrNotLZ1R1 = errors.New("lz: not an LZ1R1 stream")

// Decoder reads an LZ1R1 container incrementally: header first, then one
// token per Next call. Unlike DecodeStream it never materializes the token
// slice, so a consumer (internal/stream's windowed uncompressor) can hold
// O(1) tokens while emitting output — the container side of the
// bounded-memory pipeline.
//
// It parses tokens in place in its own read buffer. A container of short
// tokens is all token reads, and one that costs a call per byte (bufio's
// ReadByte behind binary.ReadUvarint) costs more than expanding and scanning
// the few bytes the token stands for.
type Decoder struct {
	r         io.Reader
	buf       []byte // buf[lo:hi] is read and not yet consumed
	lo, hi    int
	n         int    // header N (original length)
	count     uint64 // header token count
	remaining uint64 // tokens not yet returned
	err       error  // sticky
}

// decoderBufBytes is the read buffer: many times the longest wire form of a
// token (21 bytes: the kind byte and two uvarints).
const decoderBufBytes = 64 << 10

// NewDecoder validates the magic and header of the container on r and
// returns a token decoder. Reads are buffered; r is consumed exactly up to
// the end of the container (plus buffering).
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: r, buf: make([]byte, decoderBufBytes)}
	for d.hi < len(Magic) && d.fill() {
	}
	if d.hi < len(Magic) || string(d.buf[:len(Magic)]) != Magic {
		return nil, ErrNotLZ1R1
	}
	d.lo = len(Magic)
	n, ok := d.uvarint()
	if !ok {
		return nil, fmt.Errorf("lz: truncated stream")
	}
	if n > math.MaxInt64/2 {
		return nil, fmt.Errorf("lz: implausible original length %d", n)
	}
	count, ok := d.uvarint()
	if !ok {
		return nil, fmt.Errorf("lz: truncated stream")
	}
	// Each token is at least one byte on the wire; an absurd count is
	// rejected up front rather than discovered token by token.
	if count > n+1 && count > 1<<40 {
		return nil, fmt.Errorf("lz: implausible token count %d", count)
	}
	d.n, d.count, d.remaining = int(n), count, count
	return d, nil
}

// fill reads more of the container behind the unconsumed bytes, blocking for
// one Read. It reports false once the reader has nothing more to give (its
// end, or an error — to a parser both mean the container stops here).
func (d *Decoder) fill() bool {
	// What is unconsumed is less than a token: moving it to the front is
	// cheaper than reading into the sliver behind it.
	d.hi = copy(d.buf, d.buf[d.lo:d.hi])
	d.lo = 0
	for tries := 0; tries < 100; tries++ {
		n, err := d.r.Read(d.buf[d.hi:])
		d.hi += n
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
	return false // a reader that keeps returning (0, nil)
}

// uvarint consumes one header uvarint.
func (d *Decoder) uvarint() (uint64, bool) {
	for {
		v, n := binary.Uvarint(d.buf[d.lo:d.hi])
		if n > 0 {
			d.lo += n
			return v, true
		}
		if n < 0 || !d.fill() {
			return 0, false
		}
	}
}

// N returns the header's original (decompressed) length.
func (d *Decoder) N() int { return d.n }

// TokenCount returns the header's token count.
func (d *Decoder) TokenCount() uint64 { return d.count }

// NextToken yields the next decoded token without expanding it into text —
// the iteration API compressed-domain consumers (internal/czsearch) build
// on, so the container is parsed exactly once. It is Next under the name
// that says what it returns; both share the sticky-error state.
func (d *Decoder) NextToken() (Token, error) { return d.Next() }

// fail makes err the decoder's sticky error.
func (d *Decoder) fail(format string, args ...any) (Token, error) {
	d.err = fmt.Errorf(format, args...)
	return Token{}, d.err
}

// Next returns the next token, or io.EOF after the last one. After EOF the
// container must end; trailing bytes are reported as an error instead of
// EOF. Errors are sticky. Next blocks for input only while the bytes it
// holds do not make a whole token.
func (d *Decoder) Next() (Token, error) {
	if d.err != nil {
		return Token{}, d.err
	}
	if d.remaining == 0 {
		if d.lo < d.hi || d.fill() {
			return d.fail("lz: trailing bytes after %d tokens", d.count)
		}
		d.err = io.EOF
		return Token{}, io.EOF
	}
	d.remaining--
	for {
		b := d.buf[d.lo:d.hi]
		switch {
		case len(b) == 0:
		case b[0] == 0:
			if len(b) >= 2 {
				d.lo += 2
				return Token{Lit: b[1]}, nil
			}
		case b[0] == 1:
			src, n1 := binary.Uvarint(b[1:])
			if n1 < 0 {
				return d.fail("lz: truncated stream")
			}
			if n1 == 0 {
				break
			}
			l, n2 := binary.Uvarint(b[1+n1:])
			if n2 < 0 {
				return d.fail("lz: truncated stream")
			}
			if n2 == 0 {
				break
			}
			if l == 0 {
				return d.fail("lz: zero-length copy token")
			}
			if src > math.MaxInt32 || l > math.MaxInt32 {
				return d.fail("lz: token (src=%d, len=%d) overflows", src, l)
			}
			d.lo += 1 + n1 + n2
			return Token{Src: int32(src), Len: int32(l)}, nil
		default:
			return d.fail("lz: bad token kind %d", b[0])
		}
		// The token is not whole in the buffer.
		if !d.fill() {
			if len(b) == 1 && b[0] == 0 {
				return d.fail("lz: truncated literal")
			}
			return d.fail("lz: truncated stream")
		}
	}
}

// CopyWithin fills a[dst:dst+n] from a[src:src+n] with LZ1 copy semantics
// (src < dst, dst+n <= len(a)): an element is read only after any earlier
// write to it, so a source range that overlaps its destination — a
// self-referential copy token, legal LZ1 — yields the periodic repetition
// of a[src:dst], not a memmove of the old contents. Everything from src up
// to the fill frontier is already the right periodic text, so each round
// copies all of it and the filled stretch doubles: O(log(n/(dst-src)))
// copy calls, one when the ranges do not overlap. It is the one copy-token
// expansion of the streaming consumers (stream.Uncompressor and both modes
// of czsearch.Scanner, which also replays its per-byte state history with
// it); Decode keeps its byte loop as the reference.
func CopyWithin[T any](a []T, dst, src, n int) {
	for filled := 0; filled < n; {
		filled += copy(a[dst+filled:dst+n], a[src:dst+filled])
	}
}

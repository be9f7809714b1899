package lz

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"testing"
	"testing/iotest"

	"repro/internal/pram"
)

// decodeAll drains a Decoder into a Compressed, failing on any error.
func decodeAll(t *testing.T, data []byte) Compressed {
	t.Helper()
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	c := Compressed{N: d.N()}
	for {
		tok, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		c.Tokens = append(c.Tokens, tok)
	}
	return c
}

func TestDecoderMatchesDecodeStream(t *testing.T) {
	m := pram.NewSequential()
	rng := rand.New(rand.NewPCG(11, 7))
	for trial := 0; trial < 50; trial++ {
		n := rng.IntN(2000)
		text := make([]byte, n)
		for i := range text {
			text[i] = byte('a' + rng.IntN(3))
		}
		c := Compress(m, text)
		var buf bytes.Buffer
		if err := EncodeStream(&buf, c); err != nil {
			t.Fatalf("EncodeStream: %v", err)
		}
		want, err := DecodeStream(buf.Bytes())
		if err != nil {
			t.Fatalf("DecodeStream: %v", err)
		}
		got := decodeAll(t, buf.Bytes())
		if got.N != want.N {
			t.Fatalf("trial %d: N = %d, want %d", trial, got.N, want.N)
		}
		if len(got.Tokens) != len(want.Tokens) {
			t.Fatalf("trial %d: %d tokens, want %d", trial, len(got.Tokens), len(want.Tokens))
		}
		for i := range got.Tokens {
			if got.Tokens[i] != want.Tokens[i] {
				t.Fatalf("trial %d: token %d = %+v, want %+v", trial, i, got.Tokens[i], want.Tokens[i])
			}
		}
	}
}

// TestDecoderAcrossRefills: Next parses tokens in place while they lie whole
// in the read buffer and byte by byte otherwise. However the reader cuts the
// container — single bytes, odd chunks, all at once — the tokens are
// DecodeStream's, including the ones that straddle a refill.
func TestDecoderAcrossRefills(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	c := Compressed{}
	for len(c.Tokens) < 40000 {
		if c.N == 0 || rng.IntN(3) == 0 {
			c.Tokens = append(c.Tokens, Token{Lit: byte(rng.IntN(256))})
			c.N++
			continue
		}
		l := 1 + rng.IntN(1<<uint(rng.IntN(20)))
		c.Tokens = append(c.Tokens, Token{Src: int32(rng.IntN(c.N)), Len: int32(l)})
		c.N += l
	}
	var buf bytes.Buffer
	if err := EncodeStream(&buf, c); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 2*(64<<10) {
		t.Fatalf("container of %d bytes does not span the decoder's buffer twice", buf.Len())
	}
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(buf.Bytes()),
		"one-byte": iotest.OneByteReader(bytes.NewReader(buf.Bytes())),
		"chunks":   &chunkReader{data: buf.Bytes(), sizes: []int{1, 70000, 3, 20, 21, 22, 4096, 65535}},
	} {
		d, err := NewDecoder(r)
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", name, err)
		}
		for i, want := range c.Tokens {
			if got, err := d.Next(); err != nil || got != want {
				t.Fatalf("%s: token %d = %+v, %v; want %+v", name, i, got, err, want)
			}
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("%s: after the last token: %v, want io.EOF", name, err)
		}
	}
}

// chunkReader hands out data in reads of the given sizes, cycled.
type chunkReader struct {
	data  []byte
	sizes []int
	turn  int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.data), r.sizes[r.turn%len(r.sizes)])
	r.turn++
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestDecoderTokenIteration pins the token-iteration surface czsearch
// consumes: NextToken yields exactly the encoded tokens (identically to
// Next), TokenCount reports the header count, and a non-container input
// fails with the typed ErrNotLZ1R1.
func TestDecoderTokenIteration(t *testing.T) {
	c := Compressed{N: 7, Tokens: []Token{
		{Lit: 'a'}, {Lit: 'b'}, {Src: 0, Len: 5}, // self-referential run
	}}
	var buf bytes.Buffer
	if err := EncodeStream(&buf, c); err != nil {
		t.Fatalf("EncodeStream: %v", err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if d.TokenCount() != uint64(len(c.Tokens)) {
		t.Fatalf("TokenCount = %d, want %d", d.TokenCount(), len(c.Tokens))
	}
	for i, want := range c.Tokens {
		tok, err := d.NextToken()
		if err != nil {
			t.Fatalf("NextToken %d: %v", i, err)
		}
		if tok != want {
			t.Fatalf("NextToken %d = %+v, want %+v", i, tok, want)
		}
	}
	if _, err := d.NextToken(); err != io.EOF {
		t.Fatalf("NextToken after last = %v, want io.EOF", err)
	}

	if _, err := NewDecoder(bytes.NewReader([]byte("plain text, not a container"))); !errors.Is(err, ErrNotLZ1R1) {
		t.Fatalf("non-container error = %v, want ErrNotLZ1R1", err)
	}
	if _, err := DecodeStream([]byte("plain text, not a container")); !errors.Is(err, ErrNotLZ1R1) {
		t.Fatalf("DecodeStream non-container error = %v, want ErrNotLZ1R1", err)
	}
}

func TestDecoderRejectsCorruptStreams(t *testing.T) {
	m := pram.NewSequential()
	c := Compress(m, []byte("abracadabra abracadabra"))
	var buf bytes.Buffer
	if err := EncodeStream(&buf, c); err != nil {
		t.Fatalf("EncodeStream: %v", err)
	}
	good := buf.Bytes()

	if _, err := NewDecoder(bytes.NewReader([]byte("NOTLZ1"))); err == nil {
		t.Fatalf("bad magic accepted")
	}
	if _, err := NewDecoder(bytes.NewReader(good[:len(Magic)])); err == nil {
		t.Fatalf("truncated header accepted")
	}

	// Truncated mid-token: the structural error must surface, not io.EOF.
	d, err := NewDecoder(bytes.NewReader(good[:len(good)-1]))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	sawErr := false
	for {
		_, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatalf("truncated stream decoded without error")
	}

	// Trailing garbage after the last token.
	d, err = NewDecoder(bytes.NewReader(append(append([]byte(nil), good...), 0xff)))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	sawErr = false
	for {
		_, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatalf("trailing bytes decoded without error")
	}
}

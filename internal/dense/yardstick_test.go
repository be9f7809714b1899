package dense

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/textgen"
)

// The yardstick: the scan kernel's byte rate next to the two things a CPU
// does to 256 KiB fastest — bytes.IndexByte for a byte that never occurs
// (a vectorized read) and copy (a read and a write) — over the same
// buffers, so every ns/B below reads as a fraction of the machine. Three
// corpora bracket what the kernel serves:
//
//   - S: 128 patterns of 8–16 bytes over σ 26, the small-dictionary shape;
//   - L: 1024 patterns of 16–32 bytes over σ 64, a 6 MB table that misses
//     the caches, which is what the lanes are for;
//   - dense: 32 patterns of 2–6 bytes over σ 4, where most bytes end an
//     occurrence and the hit replay, not the table walk, is the cost.
//
// S and L plant a pattern every 512 bytes, as matchbench's corpora do. Feed
// runs twice: "feed-1lane" feeds chunks one byte shorter than a kernel
// block, which always take the single-lane loop, and "feed" feeds the
// whole buffer at once.
//
//	go test -run '^$' -bench Yardstick -cpu 1 ./internal/dense
const yardstickBytes = 256 << 10

type yardstickCorpus struct {
	name     string
	patterns [][]byte
	text     []byte
}

func yardstickCorpora() []yardstickCorpus {
	planted := func(seed uint64, sigma int, patterns [][]byte) []byte {
		g := textgen.New(seed)
		text := g.Uniform(yardstickBytes, sigma)
		for pos, k := 0, 0; pos+64 <= len(text); pos, k = pos+512, k+1 {
			copy(text[pos:], patterns[(k*7919)%len(patterns)])
		}
		return text
	}
	s := textgen.New(101).Dictionary(128, 8, 16, 26)
	l := textgen.New(102).Dictionary(1024, 16, 32, 64)
	d := textgen.New(103).Dictionary(32, 2, 6, 4)
	return []yardstickCorpus{
		{"S", s, planted(201, 26, s)},
		{"L", l, planted(202, 64, l)},
		{"dense", d, textgen.New(203).Uniform(yardstickBytes, 4)},
	}
}

var yardstickSink int

func BenchmarkYardstick(b *testing.B) {
	for _, c := range yardstickCorpora() {
		a, err := Compile(c.patterns, Options{})
		if err != nil {
			b.Fatal(err)
		}
		var events int
		emit := func(int64, core.Match) error {
			events++
			return nil
		}
		feed := func(chunk int) func(b *testing.B) {
			return func(b *testing.B) {
				b.SetBytes(int64(len(c.text)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cur := a.NewCursor()
					for off := 0; off < len(c.text); off += chunk {
						_ = cur.Feed(c.text[off:min(off+chunk, len(c.text))], emit)
					}
					_ = cur.Flush(emit)
				}
				yardstickSink += events
			}
		}
		b.Run(c.name+"/indexbyte", func(b *testing.B) {
			b.SetBytes(int64(len(c.text)))
			for i := 0; i < b.N; i++ {
				yardstickSink += bytes.IndexByte(c.text, 0xff)
			}
		})
		b.Run(c.name+"/copy", func(b *testing.B) {
			dst := make([]byte, len(c.text))
			b.SetBytes(int64(len(c.text)))
			for i := 0; i < b.N; i++ {
				yardstickSink += copy(dst, c.text)
			}
		})
		b.Run(c.name+"/feed-1lane", feed(blockBytes-1))
		b.Run(c.name+"/feed", feed(len(c.text)))
		b.Run(c.name+"/scan", func(b *testing.B) {
			b.SetBytes(int64(len(c.text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = a.Scan(c.text, func(int32, int, int) error {
					events++
					return nil
				})
			}
		})
		b.Run(c.name+"/matchinto", func(b *testing.B) {
			out := make([]core.Match, len(c.text))
			b.SetBytes(int64(len(c.text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.MatchInto(c.text, out)
			}
		})
	}
}

// BenchmarkCompileRestore times Compile on the S and L shapes and Restore
// of L from an encoded payload: the costs the table layout moves into
// set-up.
func BenchmarkCompileRestore(b *testing.B) {
	s := textgen.New(101).Dictionary(128, 8, 16, 26)
	l := textgen.New(102).Dictionary(1024, 16, 32, 64)
	for _, c := range []struct {
		name     string
		patterns [][]byte
	}{{"S", s}, {"L", l}} {
		b.Run("compile/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(c.patterns, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	a, err := Compile(l, Options{})
	if err != nil {
		b.Fatal(err)
	}
	payload := a.Encode()
	b.Run("restore/L", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Restore(payload, l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

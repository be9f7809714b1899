package dense

import "sync"

// The scan kernel: every dense route's byte loop. A single scan is one
// serial chain of dependent loads, state → next[state+class] → state, and on
// a table larger than the caches every link waits for memory. The kernel
// instead cuts a block of the text into lanes and advances all of them in
// one loop, so the lanes' loads are in flight together.
//
// Exactness. An Aho–Corasick state is the longest suffix of the text read so
// far that spells a trie node, and trie nodes are at most MaxPatternLen()
// bytes deep, so the state after any byte is determined by the last
// MaxPatternLen() bytes. Lane 0 carries the caller's state. Lane j > 0
// starts at the root MaxPatternLen()-1 bytes before its first byte and
// records nothing there; by its first byte it has read MaxPatternLen() bytes
// of the real text and is in the state a single scan from the start would
// be in, from then on. The warm-up bytes lie in lane j-1's range, which is
// why the lanes run only when MaxPatternLen()-1 <= laneBytes.
//
// Output. Each lane appends (end, state) for every byte after which it is
// in a state with outputs to its own fixed span of a hits buffer; the spans
// concatenated in lane order are in end order, and the caller replays them
// through Outputs into its own form.
//
// Geometry. lanes and laneBytes were picked by BenchmarkYardstick
// (EXPERIMENTS.md, "One scan kernel"): eight lanes of 512 bytes. Eight
// lanes ran the L shape 1.35× faster than four and the S shape 1.1×; the
// lane length barely mattered, so the shortest was kept, which lets a
// 4 KiB text run the lanes and keeps the hit buffer at 32 KiB, at the cost
// of sending dictionaries with patterns over 513 bytes to the single lane.
const (
	lanes      = 8
	laneBytes  = 512
	blockBytes = lanes * laneBytes
)

// block below spells out exactly eight lanes; this fails to compile if
// lanes changes without it.
var _ = [1]struct{}{}[lanes-8]

// hit is one byte after which the kernel was in a state with outputs: end
// is the byte's offset in the kernel's input, state the row offset.
type hit struct {
	end   int32
	state int32
}

// hits is the kernel's output buffer, reused across calls: lane j's hits
// are buf[j*laneBytes:][:n[j]]. A single-lane call reports all of its hits
// as lane 0's, over the whole buffer.
type hits struct {
	n   [lanes]int32
	buf [blockBytes]hit
}

func (h *hits) lane(j int) []hit {
	return h.buf[j*laneBytes : j*laneBytes+int(h.n[j])]
}

// hitPool holds hit buffers between scans: 32 KiB is too much to allocate
// per request, and a cursor returns its buffer when it is flushed.
var hitPool = sync.Pool{New: func() any { return new(hits) }}

func getHits() *hits { return hitPool.Get().(*hits) }

// kernel scans a prefix of text from state s into h and returns how many
// bytes it consumed and the state after them: one block on all lanes when
// text holds a block and the lanes can warm up inside it, otherwise up to a
// block's worth of bytes on one lane.
func (a *Automaton) kernel(s int32, text []byte, h *hits) (int, int32) {
	if len(text) >= blockBytes && a.maxPatLen-1 <= laneBytes {
		return blockBytes, a.block(s, (*[blockBytes]byte)(text), h)
	}
	n := min(len(text), blockBytes)
	return n, a.oneLane(s, text[:n], h)
}

// oneLane is the kernel on one lane; len(text) <= blockBytes.
func (a *Automaton) oneLane(s int32, text []byte, h *hits) int32 {
	next, cls, outStart := a.next, &a.symClass, a.outStart
	buf := &h.buf
	n := 0
	for i, b := range text {
		s = next[s+int32(cls[b])]
		if s >= outStart {
			buf[n&(blockBytes-1)] = hit{int32(i), s} // n <= i < blockBytes
			n++
		}
	}
	h.n = [lanes]int32{int32(n)}
	return s
}

// block is the kernel on all lanes over one block, from state s in lane 0.
// It returns the last lane's final state, the state after the block. The
// eight lanes are written out by hand: as a loop over an array of lane
// states the states live in memory, and the kernel runs 35–40 % slower.
func (a *Automaton) block(s int32, text *[blockBytes]byte, h *hits) int32 {
	next, cls, outStart := a.next, &a.symClass, a.outStart
	t0 := (*[laneBytes]byte)(text[0*laneBytes:])
	t1 := (*[laneBytes]byte)(text[1*laneBytes:])
	t2 := (*[laneBytes]byte)(text[2*laneBytes:])
	t3 := (*[laneBytes]byte)(text[3*laneBytes:])
	t4 := (*[laneBytes]byte)(text[4*laneBytes:])
	t5 := (*[laneBytes]byte)(text[5*laneBytes:])
	t6 := (*[laneBytes]byte)(text[6*laneBytes:])
	t7 := (*[laneBytes]byte)(text[7*laneBytes:])
	var s1, s2, s3, s4, s5, s6, s7 int32
	for i := laneBytes - int(a.maxPatLen) + 1; i < laneBytes; i++ {
		s1 = next[s1+int32(cls[t0[i]])]
		s2 = next[s2+int32(cls[t1[i]])]
		s3 = next[s3+int32(cls[t2[i]])]
		s4 = next[s4+int32(cls[t3[i]])]
		s5 = next[s5+int32(cls[t4[i]])]
		s6 = next[s6+int32(cls[t5[i]])]
		s7 = next[s7+int32(cls[t6[i]])]
	}
	h0 := (*[laneBytes]hit)(h.buf[0*laneBytes:])
	h1 := (*[laneBytes]hit)(h.buf[1*laneBytes:])
	h2 := (*[laneBytes]hit)(h.buf[2*laneBytes:])
	h3 := (*[laneBytes]hit)(h.buf[3*laneBytes:])
	h4 := (*[laneBytes]hit)(h.buf[4*laneBytes:])
	h5 := (*[laneBytes]hit)(h.buf[5*laneBytes:])
	h6 := (*[laneBytes]hit)(h.buf[6*laneBytes:])
	h7 := (*[laneBytes]hit)(h.buf[7*laneBytes:])
	var n0, n1, n2, n3, n4, n5, n6, n7 int
	s0 := s
	for i := 0; i < laneBytes; i++ {
		s0 = next[s0+int32(cls[t0[i]])]
		s1 = next[s1+int32(cls[t1[i]])]
		s2 = next[s2+int32(cls[t2[i]])]
		s3 = next[s3+int32(cls[t3[i]])]
		s4 = next[s4+int32(cls[t4[i]])]
		s5 = next[s5+int32(cls[t5[i]])]
		s6 = next[s6+int32(cls[t6[i]])]
		s7 = next[s7+int32(cls[t7[i]])]
		// A lane has at most i hits before byte i, so n&(laneBytes-1) == n.
		if s0 >= outStart {
			h0[n0&(laneBytes-1)] = hit{int32(i), s0}
			n0++
		}
		if s1 >= outStart {
			h1[n1&(laneBytes-1)] = hit{int32(i + 1*laneBytes), s1}
			n1++
		}
		if s2 >= outStart {
			h2[n2&(laneBytes-1)] = hit{int32(i + 2*laneBytes), s2}
			n2++
		}
		if s3 >= outStart {
			h3[n3&(laneBytes-1)] = hit{int32(i + 3*laneBytes), s3}
			n3++
		}
		if s4 >= outStart {
			h4[n4&(laneBytes-1)] = hit{int32(i + 4*laneBytes), s4}
			n4++
		}
		if s5 >= outStart {
			h5[n5&(laneBytes-1)] = hit{int32(i + 5*laneBytes), s5}
			n5++
		}
		if s6 >= outStart {
			h6[n6&(laneBytes-1)] = hit{int32(i + 6*laneBytes), s6}
			n6++
		}
		if s7 >= outStart {
			h7[n7&(laneBytes-1)] = hit{int32(i + 7*laneBytes), s7}
			n7++
		}
	}
	h.n = [lanes]int32{int32(n0), int32(n1), int32(n2), int32(n3), int32(n4), int32(n5), int32(n6), int32(n7)}
	return s7
}

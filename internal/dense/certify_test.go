package dense

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ahocorasick"
	"repro/internal/textgen"
)

// mustCertify fails the test unless a certifies for patterns.
func mustCertify(t testing.TB, patterns [][]byte, a *Automaton, label string) {
	t.Helper()
	if err := ahocorasick.Certify(patterns, a); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// mustNotCertify fails the test if a certifies for patterns, or fails for
// anything but ahocorasick.ErrNotCertified.
func mustNotCertify(t testing.TB, patterns [][]byte, a *Automaton, label string) {
	t.Helper()
	if err := ahocorasick.Certify(patterns, a); !errors.Is(err, ahocorasick.ErrNotCertified) {
		t.Fatalf("%s: Certify = %v, want ErrNotCertified", label, err)
	}
}

// certifyCorpus is every dictionary the dense equivalence and determinism
// suites compile, with the shapes that stress a certificate: σ 4, patterns
// of 600–700 bytes (past the kernel's lanes), duplicates and nested
// prefixes.
func certifyCorpus() map[string][][]byte {
	gen := textgen.New(4711)
	corpus := map[string][][]byte{
		"random64":   textgen.New(99).Dictionary(64, 1, 12, 8),
		"sigma4":     gen.Dictionary(24, 2, 12, 4),
		"nested":     toBytes("a", "aa", "aaa", "aaaa", "ab", "aab"),
		"dupnested":  toBytes("abc", "abc", "bc", "abc", "a", "ab"),
		"binary":     [][]byte{{0x00, 0x01}, {0xff, 0x00}, {0x01, 0x01, 0x00}},
		"churn":      gen.Dictionary(256, 8, 32, 26),
		"classicext": toBytes("he", "she", "his", "hers", "ers"),
	}
	long := gen.Uniform(700, 4)
	corpus["long600-700"] = append([][]byte{long, long[:600], long[650:], long[:640]}, gen.Dictionary(8, 600, 700, 4)...)
	for _, tc := range equivalenceCorpus() {
		corpus["equiv/"+tc.name] = tc.patterns
	}
	for _, sigma := range []int{2, 4, 26} {
		for trial := range 4 {
			corpus[fmt.Sprintf("random/sigma%d/%d", sigma, trial)] = gen.Dictionary(12, 1, 9, sigma)
		}
	}
	return corpus
}

// mustWalkLikeMatch fails the test unless the canary's walk over a — whole,
// and fed in two pieces cut at cut — is ahocorasick's M[] over text.
func mustWalkLikeMatch(t testing.TB, patterns [][]byte, a *Automaton, text []byte, cut int, label string) {
	t.Helper()
	want := ahocorasick.New(patterns).Match(text)
	if got := ahocorasick.Walk(a, text); !slices.Equal(got, want) {
		t.Fatalf("%s: walk M[] %v, ahocorasick %v", label, got, want)
	}
	got := make([]int32, len(text))
	for i := range got {
		got[i] = -1
	}
	record := func(i int64, id int32) { got[i] = id }
	w := ahocorasick.NewWalker(a)
	w.Feed(text[:cut], record)
	w.Feed(text[cut:], record)
	w.Flush(record)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: walk cut at %d: M[] %v, ahocorasick %v", label, cut, got, want)
	}
}

// plantedText is a text holding every pattern, each followed by the first
// half of another, so occurrences overlap and nest.
func plantedText(patterns [][]byte) []byte {
	var text []byte
	for i, p := range patterns {
		q := patterns[(7*i+3)%len(patterns)]
		text = append(append(text, p...), q[:len(q)/2]...)
	}
	return text
}

// TestCertifyCompiled: every automaton Compile builds certifies, and so does
// every payload round trip, the older numbering Restore rewrites included;
// the canary's walk over each answers what ahocorasick does.
func TestCertifyCompiled(t *testing.T) {
	for name, patterns := range certifyCorpus() {
		a := mustCompile(t, patterns)
		mustCertify(t, patterns, a, name)
		b, err := Restore(a.Encode(), patterns)
		if err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		mustCertify(t, patterns, b, name+" restored")
		text := plantedText(patterns)
		mustWalkLikeMatch(t, patterns, a, text, len(text)/3, name)
		mustWalkLikeMatch(t, patterns, b, text, len(text)/2, name+" restored")
	}
	classic := toBytes("he", "she", "his", "hers")
	b, err := Restore(classicOlderPayload(), classic)
	if err != nil {
		t.Fatal(err)
	}
	mustCertify(t, classic, b, "older numbering")
	// Another dictionary's automaton is not this one's.
	mustNotCertify(t, toBytes("he", "she", "his"), mustCompile(t, classic), "fewer patterns")
	mustNotCertify(t, toBytes("he", "she", "his", "hers", "x"), mustCompile(t, classic), "more patterns")
}

// clone returns a deep copy of a that a test may damage.
func clone(a *Automaton) *Automaton {
	b := *a
	b.next = slices.Clone(a.next)
	b.outOff = slices.Clone(a.outOff)
	b.outPat = slices.Clone(a.outPat)
	b.patLen = slices.Clone(a.patLen)
	return &b
}

// withOutputs returns a copy of a whose output list of state id s is
// replaced by edit's result, the packed table re-laid around it.
func withOutputs(a *Automaton, s int32, edit func([]int32) []int32) *Automaton {
	b := clone(a)
	b.outPat = b.outPat[:0:0]
	for id := int32(0); id < a.numStates; id++ {
		out := a.outPat[a.outOff[id]:a.outOff[id+1]]
		if id == s {
			out = edit(slices.Clone(out))
		}
		b.outOff[id] = int32(len(b.outPat))
		b.outPat = append(b.outPat, out...)
	}
	b.outOff[a.numStates] = int32(len(b.outPat))
	return b
}

// TestCertifyCatchesMutations: one wrong entry anywhere in the table fails
// the certificate — a redirected transition (every entry of a small table,
// to every other state), two pattern bytes sharing a class, an output
// dropped or reordered, a wrong PatternLen, MaxPatternLen one short, and a
// restored DENSE payload whose target is in range but wrong.
func TestCertifyCatchesMutations(t *testing.T) {
	patterns := toBytes("he", "she", "his", "hers", "ers", "s")
	a := mustCompile(t, patterns)
	mustCertify(t, patterns, a, "unmutated")

	for i, v := range a.next {
		for id := int32(0); id < a.numStates; id++ {
			if q := id * a.width; q != v {
				b := clone(a)
				b.next[i] = q
				mustNotCertify(t, patterns, b, fmt.Sprintf("next[%d] %d -> %d", i, v, q))
			}
		}
	}

	b := clone(a)
	b.symClass['s'] = b.symClass['h']
	mustNotCertify(t, patterns, b, "s and h share a class")
	b = clone(a)
	b.symClass['z'] = 1
	mustNotCertify(t, patterns, b, "a byte in no pattern has a class")

	multi := int32(-1) // a state with two or more outputs
	for id := int32(0); id < a.numStates; id++ {
		if n := a.outOff[id+1] - a.outOff[id]; n > 0 {
			mustNotCertify(t, patterns, withOutputs(a, id, func(out []int32) []int32 { return out[1:] }), fmt.Sprintf("state %d drops its first output", id))
			mustNotCertify(t, patterns, withOutputs(a, id, func(out []int32) []int32 { return out[:len(out)-1] }), fmt.Sprintf("state %d drops its last output", id))
			if n > 1 {
				multi = id
			}
		}
	}
	if multi < 0 {
		t.Fatal("no state with two outputs: the reorder case tests nothing")
	}
	mustNotCertify(t, patterns, withOutputs(a, multi, func(out []int32) []int32 {
		out[0], out[1] = out[1], out[0]
		return out
	}), "outputs reordered")
	mustNotCertify(t, patterns, withOutputs(a, 0, func(out []int32) []int32 { return append(out, 0) }), "the root has an output")

	for id := range a.patLen {
		b := clone(a)
		b.patLen[id]++
		mustNotCertify(t, patterns, b, fmt.Sprintf("PatternLen(%d) one long", id))
	}
	b = clone(a)
	b.maxPatLen--
	mustNotCertify(t, patterns, b, "MaxPatternLen one short")
	b = clone(a)
	b.outStart += b.width
	mustNotCertify(t, patterns, b, "HasOutputs threshold one state late")

	// Restore range-checks targets only: a wrong one in range loads, and the
	// certificate is what refuses it.
	payload := a.Encode()
	at := 16 + 512 + 4*(3*int(a.width)+1) // state 3's transition on class 1
	old := binary.LittleEndian.Uint32(payload[at:])
	binary.LittleEndian.PutUint32(payload[at:], (old+1)%uint32(a.numStates))
	r, err := Restore(payload, patterns)
	if err != nil {
		t.Fatalf("Restore of an in-range target: %v", err)
	}
	mustNotCertify(t, patterns, r, "restored payload with a wrong in-range target")
}

// FuzzCertify: a random dictionary's automaton always certifies, the
// canary's walk over it answers what ahocorasick does on the fuzz text, and
// a single changed entry never certifies — a table is determined by its
// patterns, so every change is a wrong table, and the fuzz text shows which
// of them a scan would have answered wrongly.
func FuzzCertify(f *testing.F) {
	f.Add([]byte("ushers her hers"), []byte("he\nshe\nhers\nhis"), uint8(3), uint16(7), uint16(3), uint8(0))
	f.Add([]byte("aaaaaaaa"), []byte("a\naa\naaa"), uint8(2), uint16(1), uint16(0), uint8(1))
	f.Add([]byte("xyxyxyx"), []byte("xyx\nyxy\nxyx"), uint8(4), uint16(5), uint16(9), uint8(2))
	f.Add([]byte("abcab"), []byte("ab\nbca\ncabc\nabcab"), uint8(3), uint16(40), uint16(2), uint8(3))

	f.Fuzz(func(t *testing.T, rawText, rawDict []byte, sigma uint8, at, to uint16, kind uint8) {
		if len(rawText) > 512 || len(rawDict) > 256 {
			return
		}
		text, patterns := fuzzCase(rawText, rawDict, sigma)
		if len(patterns) == 0 {
			return
		}
		a, err := Compile(patterns, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mustCertify(t, patterns, a, "compiled")
		mustWalkLikeMatch(t, patterns, a, text, int(at)%(len(text)+1), "compiled")

		b := clone(a)
		var what string
		switch kind % 4 {
		case 0: // a transition
			i := int(at) % len(b.next)
			q := (int32(to) % b.numStates) * b.width
			if q == b.next[i] {
				return
			}
			b.next[i] = q
			what = fmt.Sprintf("next[%d] = %d", i, q)
		case 1: // a class
			c := byte('a' + int(at)%(int(sigma)%8+2))
			d := byte('a' + int(to)%(int(sigma)%8+2))
			if b.symClass[c] == 0 || b.symClass[d] == 0 || b.symClass[c] == b.symClass[d] {
				return
			}
			b.symClass[c] = b.symClass[d]
			what = fmt.Sprintf("%q takes %q's class", c, d)
		case 2: // an output
			if len(b.outPat) == 0 {
				return
			}
			i := int(at) % len(b.outPat)
			p := int32(to) % int32(len(patterns))
			if p == b.outPat[i] || string(patterns[p]) == string(patterns[b.outPat[i]]) {
				return
			}
			b.outPat[i] = p
			what = fmt.Sprintf("outPat[%d] = %d", i, p)
		case 3: // a length
			id := int(at) % len(b.patLen)
			b.patLen[id] += 1 + int32(to)%3
			what = fmt.Sprintf("patLen[%d] = %d", id, b.patLen[id])
		}
		err = ahocorasick.Certify(patterns, b)
		if !errors.Is(err, ahocorasick.ErrNotCertified) {
			wrong := false
			if kind%4 != 3 { // a long PatternLen can index before the text
				wrong = !slices.Equal(a.Match(text), b.Match(text))
			}
			t.Fatalf("%s certified (err %v); scan wrong on the fuzz text: %v", what, err, wrong)
		}
	})
}

// BenchmarkCertify times the certificate next to Compile on the churn
// shape (256 patterns of 8–32 bytes over σ 26) and the L shape (1024 of
// 16–32 over σ 64), and one canary turn on the bulk shape (L over a 256 KiB
// σ 64 text, a pattern planted every 512 bytes): the walk over the
// certified table, against building ahocorasick's automaton and matching.
func BenchmarkCertify(b *testing.B) {
	bulk := textgen.New(102).Dictionary(1024, 16, 32, 64)
	gen := textgen.New(30)
	text := gen.Uniform(256<<10, 64)
	for pos := 0; pos+32 <= len(text); pos += 512 {
		copy(text[pos:], bulk[pos/512%len(bulk)])
	}
	a, err := Compile(bulk, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("canary/bulk/walk", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			ahocorasick.Walk(a, text)
		}
	})
	b.Run("canary/bulk/new+match", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			ahocorasick.New(bulk).Match(text)
		}
	})

	for _, c := range []struct {
		name     string
		patterns [][]byte
	}{
		{"churn", textgen.New(104).Dictionary(256, 8, 32, 26)},
		{"L", textgen.New(102).Dictionary(1024, 16, 32, 64)},
	} {
		a, err := Compile(c.patterns, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("certify/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ahocorasick.Certify(c.patterns, a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("compile/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(c.patterns, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

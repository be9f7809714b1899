package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"repro/internal/ahocorasick"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/textgen"
)

// dictShape is one seeded dictionary family: count, length range, alphabet.
type dictShape struct {
	patterns, minLen, maxLen, sigma int
}

var (
	shapeS     = dictShape{128, 8, 16, 26}   // the C3 shape
	shapeL     = dictShape{1024, 16, 32, 64} // the C5 shape, ≈ 6 MB dense table
	shapeChurn = dictShape{256, 8, 32, 26}   // the writer's fresh dictionaries on churn
)

// plantGap is the distance between planted occurrences: responses are
// non-empty but match density stays low.
const plantGap = 512

// subSeed derives an independent stream seed from the run seed and a salt
// (splitmix64), so every generated input depends on -seed and nothing else.
func subSeed(seed uint64, salt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genDict draws a dictionary of the given shape with distinct patterns, so
// the longest match at a position names exactly one pattern id.
func genDict(seed uint64, sh dictShape) [][]byte {
	g := textgen.New(seed)
	seen := make(map[string]bool, sh.patterns)
	out := make([][]byte, 0, sh.patterns)
	for len(out) < sh.patterns {
		for _, p := range g.Dictionary(sh.patterns-len(out), sh.minLen, sh.maxLen, sh.sigma) {
			if !seen[string(p)] {
				seen[string(p)] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// plant overwrites text with one occurrence of a pattern from dicts
// (rotating through them) about every gap bytes, at a seeded jitter.
func plant(seed uint64, text []byte, gap int, dicts ...[][]byte) {
	rng := rand.New(rand.NewPCG(seed, 0x706c616e74))
	k := 0
	for pos := rng.IntN(gap/2 + 1); pos < len(text); pos += gap/2 + rng.IntN(gap) {
		d := dicts[k%len(dicts)]
		k++
		p := d[rng.IntN(len(d))]
		if pos+len(p) <= len(text) {
			copy(text[pos:], p)
		}
	}
}

// plantedText is seeded uniform noise over sigma letters with occurrences
// from dicts planted every ≈ gap bytes.
func plantedText(seed uint64, n, sigma, gap int, dicts ...[][]byte) []byte {
	text := textgen.New(seed).Uniform(n, sigma)
	plant(seed, text, gap, dicts...)
	return text
}

// smallPool is the pool of distinct 64 B texts shared by small and the cluster probe,
// each carrying one planted occurrence.
func smallPool(seed uint64, dict [][]byte) [][]byte {
	const texts, size = 1024, 64
	rng := rand.New(rand.NewPCG(subSeed(seed, 11), 0x706f6f6c))
	g := textgen.New(subSeed(seed, 12))
	pool := make([][]byte, texts)
	for i := range pool {
		t := g.Uniform(size, shapeS.sigma)
		p := dict[rng.IntN(len(dict))]
		copy(t[rng.IntN(size-len(p)+1):], p)
		pool[i] = t
	}
	return pool
}

// hit is one expected (or returned) longest match.
type hit struct {
	Pos     int `json:"pos"`
	Pattern int `json:"pattern"`
	Length  int `json:"length"`
}

// oracleHits computes the expected answer M[i] for text with the classical
// Aho–Corasick automaton, the repo's reference matcher.
func oracleHits(ac *ahocorasick.Automaton, text []byte) []hit {
	var out []hit
	for i, p := range ac.Match(text) {
		if p >= 0 {
			out = append(out, hit{Pos: i, Pattern: int(p), Length: int(ac.PatternLen(p))})
		}
	}
	return out
}

// lzContainer returns the LZ1R1 container of text. Building one costs a
// suffix tree over the text, so containers are cached under corpusDir, keyed
// by the generator parameters in name, and re-validated on load by decoding
// them back to text.
func lzContainer(corpusDir, name string, text []byte) ([]byte, error) {
	path := filepath.Join(corpusDir, name+".lz1r1")
	if data, err := os.ReadFile(path); err == nil && containerDecodesTo(data, text) {
		return data, nil
	}
	var buf bytes.Buffer
	if err := lz.EncodeStream(&buf, lz.CompressSequential(pram.NewSequential(), text)); err != nil {
		return nil, fmt.Errorf("encode %s: %w", name, err)
	}
	if !containerDecodesTo(buf.Bytes(), text) {
		return nil, fmt.Errorf("container %s does not decode back to its text", name)
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func containerDecodesTo(data, text []byte) bool {
	c, err := lz.DecodeStream(data)
	if err != nil {
		return false
	}
	got, err := lz.Decode(c)
	return err == nil && bytes.Equal(got, text)
}

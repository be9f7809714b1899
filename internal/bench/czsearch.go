// E20 and the Z-series: compressed-domain matching (internal/czsearch). The
// claim under test is the point of searching the token stream at all: on
// compressible corpora the scanner answers in time proportional to the
// bytes it actually touches (token boundaries plus a ≤ maxPatLen
// resynchronization run per copy), so represented-bytes-per-second beats
// decompress-then-match by roughly the compression ratio — and on
// incompressible corpora, where every byte arrives as a literal or a copy of
// a few bytes, the scanner reads that off the container header and expands
// and scans instead (Z3/Z4: 0.29×/0.19× before that cutover existed).
package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/czsearch"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/textgen"
)

// CzPerfResult is one Z-series measurement for BENCH_PR8.json: the same
// (dictionary, container) workload answered by the compressed-domain scanner
// and by decompress-then-match on the same dense automaton — the strongest
// honest baseline, since the tree walk would flatter the scanner.
type CzPerfResult struct {
	ID        string  `json:"id"`     // Z-series experiment id
	Name      string  `json:"name"`   // corpus name
	Config    string  `json:"config"` // "czsearch" or "decompress+match"
	TextLen   int     `json:"textLen"`
	Tokens    int     `json:"tokens"`
	Ratio     float64 `json:"compressionRatio"` // container bytes / text bytes
	NsPerOp   int64   `json:"nsPerOp"`
	RepMBPerS float64 `json:"representedMBPerSec"`
	// czsearch rows only. BytesTouched/TouchedPct report how little of the
	// represented text fed automaton transitions — reported even on losing
	// rows, so the table cannot overstate the savings.
	Speedup      float64 `json:"speedup,omitempty"` // baseline ns / czsearch ns
	BytesTouched int64   `json:"bytesTouched,omitempty"`
	TouchedPct   float64 `json:"touchedPct,omitempty"`
	SyncSkipped  int64   `json:"syncSkipped,omitempty"`
	MemoHits     int64   `json:"memoHits,omitempty"`
	Expanded     bool    `json:"expanded,omitempty"` // the scanner's header rule chose expand-and-scan
}

// czCorpus is one Z-series workload.
type czCorpus struct {
	name  string
	text  []byte
	sigma int
}

// czCorpora spans the compressibility axis: repetitive (LZ ratio ~1%),
// mutated-repetitive (mid ratio, where the crossover lives), Markov and
// uniform (barely/not compressible — the losing rows the scanner must
// report honestly).
func czCorpora(scale Scale) []czCorpus {
	n := scale.pick(1<<18, 1<<21)
	g := textgen.New(20613)
	return []czCorpus{
		{"repetitive", g.Repetitive(n, 256, 0.001), 26},
		{"mutated", g.Repetitive(n, 64, 0.02), 26},
		{"markov", g.Markov(n, 16, 0.25), 16},
		{"uniform", g.Uniform(n, 26), 26},
	}
}

// RunCzPerf measures the Z-series.
func RunCzPerf(scale Scale) []CzPerfResult {
	m := pram.NewSequential()
	var out []CzPerfResult
	for i, c := range czCorpora(scale) {
		id := fmt.Sprintf("Z%d", i+1)
		patterns := textgen.New(uint64(977+i)).Dictionary(64, 4, 12, c.sigma)
		aut, err := dense.Compile(patterns, dense.Options{})
		if err != nil {
			panic(err) // sweep sizes are far below any table budget
		}
		var enc bytes.Buffer
		if err := lz.EncodeStream(&enc, lz.Compress(m, c.text)); err != nil {
			panic(err)
		}
		container := enc.Bytes()
		ratio := float64(len(container)) / float64(len(c.text))

		// Baseline: decode the container, expand it, scan with the same
		// automaton — what the serving layer's fallback and oracle do.
		sinkCount := 0
		baseNs := testing.Benchmark(func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				cc, err := lz.DecodeStream(container)
				if err != nil {
					b.Fatal(err)
				}
				text, err := lz.Decode(cc)
				if err != nil {
					b.Fatal(err)
				}
				if err := aut.Scan(text, func(pat int32, from, to int) error { sinkCount++; return nil }); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()

		sc := czsearch.NewScanner(aut, czsearch.Config{})
		var st czsearch.Stats
		czNs := testing.Benchmark(func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				dec, err := lz.NewDecoder(bytes.NewReader(container))
				if err != nil {
					b.Fatal(err)
				}
				st, err = sc.Run(context.Background(), dec, func(czsearch.Event) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()

		out = append(out,
			CzPerfResult{
				ID: id, Name: c.name, Config: "decompress+match",
				TextLen: len(c.text), Tokens: int(st.Tokens), Ratio: ratio,
				NsPerOp: baseNs, RepMBPerS: mbPerSec(len(c.text), baseNs),
			},
			CzPerfResult{
				ID: id, Name: c.name, Config: "czsearch",
				TextLen: len(c.text), Tokens: int(st.Tokens), Ratio: ratio,
				NsPerOp: czNs, RepMBPerS: mbPerSec(len(c.text), czNs),
				Speedup:      float64(baseNs) / float64(czNs),
				BytesTouched: st.BytesTouched,
				TouchedPct:   100 * float64(st.BytesTouched) / float64(max(st.BytesRepresented, 1)),
				SyncSkipped:  st.SyncSkipped,
				MemoHits:     st.MemoHits,
				Expanded:     st.Expanded,
			})
	}
	return out
}

// E20Czsearch prints the human-readable Z-series table.
func E20Czsearch() Experiment {
	return Experiment{
		ID:    "E20",
		Title: "Compressed-domain matching: token-stream scan vs decompress-then-match (internal/czsearch, DESIGN §14)",
		Claim: "matching the LZ1 token stream directly costs automaton work proportional to bytes touched (token boundaries + one ≤ maxPatLen resync run per copy), so represented-MB/s beats decompress-then-match roughly by the compression ratio on compressible corpora — and on incompressible ones, where tokens are too short to pay for their bookkeeping, the scanner expands and scans instead and stays at the baseline's speed",
		Run: func(w io.Writer, scale Scale) {
			results := RunCzPerf(scale)
			t := newTable(w, "corpus", "ratio", "tokens", "mode", "base MB/s", "cz MB/s", "speedup", "touched %", "syncSkipped", "memo hits")
			for i := 0; i+1 < len(results); i += 2 {
				base, cz := results[i], results[i+1]
				mode := "tokens"
				if cz.Expanded {
					mode = "expanded"
				}
				t.row(base.Name, fmt.Sprintf("%.4f", base.Ratio), base.Tokens, mode,
					fmt.Sprintf("%.1f", base.RepMBPerS), fmt.Sprintf("%.1f", cz.RepMBPerS),
					fmt.Sprintf("%.2fx", cz.Speedup),
					fmt.Sprintf("%.2f%%", cz.TouchedPct), cz.SyncSkipped, cz.MemoHits)
			}
			t.flush()
			fmt.Fprintln(w, "\nMB/s are represented bytes per second; \"touched\" is what the automaton actually consumed.")
			fmt.Fprintln(w, "Bytes-touched accounting: touched + syncSkipped + memo == represented, checked by the test suite.")
		},
	}
}

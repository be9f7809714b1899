// Package bench implements the experiment harness behind cmd/benchtab and
// EXPERIMENTS.md. The paper is an extended abstract with no empirical
// tables; its evaluation is the set of claimed complexity bounds
// (Theorems 3.1–3.3, 4.2, 4.3, 5.3 and the §3.2 structure bounds) plus the
// prior-work comparisons of §1.1. Each experiment here measures one claim
// on the PRAM simulator — work and depth counters are the reproduction
// currency (see DESIGN.md §3) — and prints a table whose *shape* (who
// wins, what grows, where crossovers fall) is the reproduction target.
package bench

import (
	"fmt"
	"io"
	"math"
	"time"
)

// Experiment is one runnable table generator.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper's asserted bound or statement
	Run   func(w io.Writer, scale Scale)
}

// Scale selects experiment sizes.
type Scale int

const (
	// Quick keeps every experiment under a few seconds (CI-friendly).
	Quick Scale = iota
	// Full uses the sizes reported in EXPERIMENTS.md.
	Full
)

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Quick {
		return q
	}
	return f
}

// table is a minimal fixed-width table printer.
type table struct {
	w      io.Writer
	header []string
	widths []int
	rows   [][]string
}

func newTable(w io.Writer, header ...string) *table {
	t := &table{w: w, header: header, widths: make([]int, len(header))}
	for i, h := range header {
		t.widths[i] = len(h)
	}
	return t
}

func (t *table) row(cells ...interface{}) {
	r := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			r[i] = v
		case float64:
			r[i] = formatFloat(v)
		case int:
			r[i] = fmt.Sprintf("%d", v)
		case int64:
			r[i] = fmt.Sprintf("%d", v)
		case time.Duration:
			r[i] = v.Round(time.Microsecond).String()
		default:
			r[i] = fmt.Sprint(v)
		}
		if len(r[i]) > t.widths[i] {
			t.widths[i] = len(r[i])
		}
	}
	t.rows = append(t.rows, r)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 0) || math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func (t *table) flush() {
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(t.w, "| %-*s ", t.widths[i], c)
		}
		fmt.Fprintln(t.w, "|")
	}
	line(t.header)
	for i, w := range t.widths {
		fmt.Fprint(t.w, "|")
		for j := 0; j < w+2; j++ {
			fmt.Fprint(t.w, "-")
		}
		if i == len(t.widths)-1 {
			fmt.Fprintln(t.w, "|")
		}
	}
	for _, r := range t.rows {
		line(r)
	}
}

// log2 of an int, as float.
func log2(n int) float64 { return math.Log2(float64(n)) }

// All returns every experiment in EXPERIMENTS.md order.
func All() []Experiment {
	return []Experiment{
		E1MatchingScaling(),
		E2Preprocessing(),
		E3Alphabet(),
		E4Baselines(),
		E5Checker(),
		E6NCA(),
		E7LZCompress(),
		E8LZUncompress(),
		E9StaticParse(),
		E10SuffixTree(),
		E11Fingerprint(),
		E12PhraseCounts(),
		E13Distributed(),
		E14Adaptive(),
	}
}

// Command dictmatch preprocesses a dictionary of patterns and reports, for
// each position of a text, the longest pattern that starts there — the
// paper's dictionary matching problem (§3).
//
// Usage:
//
//	dictmatch -dict patterns.txt [-text file] [-engine parallel|ac] \
//	          [-procs N] [-nca auto|naive|veb] [-stream] [-segment BYTES] \
//	          [-stats] [-q]
//
// The dictionary file holds one pattern per line. The text is read from
// -text or stdin. Output lines are "offset<TAB>pattern". -engine=ac runs
// the sequential Aho–Corasick baseline instead; -stats prints the PRAM
// work/depth ledger.
//
// -stream matches the text through the bounded-memory segment pipeline
// (internal/stream) instead of loading it whole: resident memory is
// O(-segment + longest pattern) however large the input, and matches print
// incrementally. `cat big.txt | dictmatch -dict p.txt -stream` emits the
// same lines as the batch mode.
//
// -compressed treats the input as an LZ1R1 container (lzpack -c produces
// one) and matches it in the compressed domain (internal/czsearch): the
// output lines are identical to decompressing and matching, but the
// automaton touches only a fraction of the represented bytes. Anything that
// is not an LZ1R1 container is rejected with a non-zero exit.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/core"
	"repro/internal/czsearch"
	"repro/internal/dense"
	"repro/internal/lz"
	"repro/internal/pram"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dictmatch: ")
	dictPath := flag.String("dict", "", "file with one pattern per line (required)")
	textPath := flag.String("text", "", "text file (default stdin)")
	engine := flag.String("engine", "parallel", "parallel (the paper's algorithm, Las Vegas) or ac (Aho–Corasick baseline)")
	procs := flag.Int("procs", 0, "worker goroutines (0 = GOMAXPROCS)")
	ncaFlag := flag.String("nca", "auto", "nearest-colored-ancestor structure: auto, naive, veb")
	anchorFlag := flag.String("anchor", "separator", "Step 1A locate strategy: separator (the paper's) or sa")
	stats := flag.Bool("stats", false, "print PRAM work/depth counters to stderr")
	quiet := flag.Bool("q", false, "suppress per-match output (useful with -stats)")
	seed := flag.Uint64("seed", 1, "fingerprint seed")
	streamMode := flag.Bool("stream", false, "stream the text through the bounded-memory segment pipeline")
	segment := flag.Int("segment", 1<<20, "segment size in bytes for -stream")
	compressed := flag.Bool("compressed", false, "treat the input as an LZ1R1 container and match it without decompressing")
	flag.Parse()

	if *dictPath == "" {
		log.Fatal("-dict is required")
	}
	patterns, err := readPatterns(*dictPath)
	if err != nil {
		log.Fatal(err)
	}
	if *compressed {
		if *streamMode {
			log.Fatal("-compressed and -stream are mutually exclusive (a compressed scan is already streaming)")
		}
		runCompressed(patterns, *textPath, *procs, *seed, *segment, *stats, *quiet)
		return
	}
	if *streamMode {
		if *engine != "parallel" {
			log.Fatal("-stream requires -engine parallel")
		}
		runStream(patterns, *textPath, *procs, *seed, *segment, *stats, *quiet)
		return
	}
	text, err := readText(*textPath)
	if err != nil {
		log.Fatal(err)
	}

	var matches []core.Match
	start := time.Now()
	var m *pram.Machine
	switch *engine {
	case "ac":
		ac := ahocorasick.New(patterns)
		res := ac.Match(text)
		matches = make([]core.Match, len(res))
		for i, p := range res {
			if p < 0 {
				matches[i] = core.None
			} else {
				matches[i] = core.Match{PatternID: p, Length: ac.PatternLen(p)}
			}
		}
	case "parallel":
		m = pram.New(*procs)
		defer m.Close()
		var nca core.NCAVariant
		switch *ncaFlag {
		case "auto":
			nca = core.NCAAuto
		case "naive":
			nca = core.NCANaive
		case "veb":
			nca = core.NCAImproved
		default:
			log.Fatalf("unknown -nca %q", *ncaFlag)
		}
		var anchor core.AnchorStrategy
		switch *anchorFlag {
		case "separator":
			anchor = core.AnchorSeparator
		case "sa":
			anchor = core.AnchorSA
		default:
			log.Fatalf("unknown -anchor %q", *anchorFlag)
		}
		dict := core.Preprocess(m, patterns, core.Options{Seed: *seed, NCA: nca, Anchor: anchor})
		var attempts int
		matches, attempts = dict.MatchLasVegas(m, text)
		if attempts > 1 {
			fmt.Fprintf(os.Stderr, "note: %d Las Vegas attempts\n", attempts)
		}
	default:
		log.Fatalf("unknown -engine %q", *engine)
	}
	elapsed := time.Since(start)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	found := 0
	for i, mt := range matches {
		if mt.Length == 0 {
			continue
		}
		found++
		if !*quiet {
			fmt.Fprintf(out, "%d\t%s\n", i, patterns[mt.PatternID])
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "text=%dB dict=%d patterns matches=%d wall=%s\n",
			len(text), len(patterns), found, elapsed.Round(time.Microsecond))
		if m != nil {
			w, d := m.Counters()
			fmt.Fprintf(os.Stderr, "pram: work=%d (%.2f/char) depth=%d procs=%d\n",
				w, float64(w)/float64(len(text)), d, m.Procs())
		}
	}
}

// lineSink prints one "offset<TAB>pattern" line per match event, exactly
// like the batch output path.
type lineSink struct {
	out      *bufio.Writer
	patterns [][]byte
	quiet    bool
	found    int64
}

func (s *lineSink) MatchEvent(e stream.MatchEvent) error {
	s.found++
	if s.quiet {
		return nil
	}
	_, err := fmt.Fprintf(s.out, "%d\t%s\n", e.Pos, s.patterns[e.PatternID])
	return err
}

// runStream is the -stream path: the text flows through internal/stream's
// segment pipeline, never resident beyond one window.
func runStream(patterns [][]byte, textPath string, procs int, seed uint64, segment int, stats, quiet bool) {
	var r io.Reader = os.Stdin
	if textPath != "" {
		f, err := os.Open(textPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	m := pram.New(procs)
	defer m.Close()
	dict := core.Preprocess(m, patterns, core.Options{Seed: seed})
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	sink := &lineSink{out: out, patterns: patterns, quiet: quiet}
	start := time.Now()
	st, err := stream.Match(context.Background(), stream.DictMatcher{Dict: dict, M: m}, r, sink, stream.Config{SegmentBytes: segment})
	elapsed := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	if st.Rounds > int(st.Segments) {
		fmt.Fprintf(os.Stderr, "note: %d Las Vegas attempts over %d segments\n", st.Rounds, st.Segments)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "text=%dB dict=%d patterns matches=%d wall=%s\n",
			st.TextBytes, len(patterns), sink.found, elapsed.Round(time.Microsecond))
		fmt.Fprintf(os.Stderr, "stream: segments=%d window=%dB resident=%dB recompute=%.2f%%\n",
			st.Segments, segment, st.MaxResident,
			100*float64(st.WindowBytes-st.TextBytes)/float64(max(st.TextBytes, 1)))
		fmt.Fprintf(os.Stderr, "pram: work=%d (%.2f/char) depth=%d procs=%d\n",
			st.Work, float64(st.Work)/float64(max(st.TextBytes, 1)), st.Depth, m.Procs())
	}
}

// runCompressed is the -compressed path: the input is an LZ1R1 container,
// matched in the compressed domain. The dictionary is lowered to the dense
// automaton and scanned token by token (internal/czsearch); if the table is
// over budget the windowed uncompressor fused to the streaming matcher
// produces the same lines the slow way.
func runCompressed(patterns [][]byte, textPath string, procs int, seed uint64, segment int, stats, quiet bool) {
	var r io.Reader = os.Stdin
	if textPath != "" {
		f, err := os.Open(textPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	found := int64(0)
	sink := func(e czsearch.Event) error {
		found++
		if quiet {
			return nil
		}
		_, err := fmt.Fprintf(out, "%d\t%s\n", e.Pos, patterns[e.PatternID])
		return err
	}

	start := time.Now()
	var st czsearch.Stats
	aut, cerr := dense.Compile(patterns, dense.Options{})
	if cerr == nil {
		dec, err := lz.NewDecoder(r)
		if err != nil {
			fatalContainer(err)
		}
		st, cerr = czsearch.NewScanner(aut, czsearch.Config{}).Run(context.Background(), dec, sink)
		if cerr != nil {
			fatalContainer(cerr)
		}
	} else {
		fmt.Fprintf(os.Stderr, "note: dense table over budget (%v); decompressing to match\n", cerr)
		m := pram.New(procs)
		defer m.Close()
		dict := core.Preprocess(m, patterns, core.Options{Seed: seed})
		f, err := czsearch.NewFallback(r, czsearch.Config{})
		if err != nil {
			fatalContainer(err)
		}
		st, err = f.Run(context.Background(), stream.DictMatcher{Dict: dict, M: m}, stream.Config{SegmentBytes: segment}, sink)
		if err != nil {
			fatalContainer(err)
		}
	}
	elapsed := time.Since(start)
	if stats {
		fmt.Fprintf(os.Stderr, "represented=%dB tokens=%d dict=%d patterns matches=%d wall=%s\n",
			st.BytesRepresented, st.Tokens, len(patterns), found, elapsed.Round(time.Microsecond))
		fmt.Fprintf(os.Stderr, "czsearch: expanded=%v touched=%dB (%.1f%%) syncSkipped=%dB memo=%dB hits=%d resident=%dB\n",
			st.Expanded, st.BytesTouched, 100*float64(st.BytesTouched)/float64(max(st.BytesRepresented, 1)),
			st.SyncSkipped, st.MemoBytes, st.MemoHits, st.MaxResident)
	}
}

// fatalContainer exits non-zero with a message that distinguishes "not an
// LZ1R1 container at all" from mid-stream corruption.
func fatalContainer(err error) {
	if errors.Is(err, lz.ErrNotLZ1R1) {
		log.Fatalf("input is not an LZ1R1 container (-compressed wants lzpack -c output): %v", err)
	}
	log.Fatal(err)
}

func readPatterns(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var patterns [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		if len(line) > 0 {
			patterns = append(patterns, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("no patterns in %s", path)
	}
	return patterns, nil
}

func readText(path string) ([]byte, error) {
	if path == "" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

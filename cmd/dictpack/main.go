// Command dictpack manages dictionary snapshot files (internal/persist):
// pack a pattern set, with its compiled dense automaton if asked, into a
// portable .dmsnap, ship the file, and every later consumer (dictpack
// itself, matchd -cache-dir) restores the automaton without compiling it.
//
// Usage:
//
//	dictpack pack    -dict patterns.txt [-o dict.dmsnap | -store DIR] [-dense] \
//	                 [-seed N] [-nca auto|naive|veb] [-anchor separator|sa]
//	dictpack unpack  -in dict.dmsnap [-o patterns.txt]
//	dictpack inspect -in dict.dmsnap [-json]
//	dictpack verify  -in dict.dmsnap
//	dictpack compile -in dict.dmsnap [-o out.dmsnap] [-max-table BYTES] [-force]
//
// pack writes the patterns and the options their §3 dictionary is
// preprocessed with to -o, or into a content-addressed store directory with
// -store (the same layout matchd -cache-dir reads, so packing into a
// server's cache dir prewarms it); with -dense it also compiles the
// flat-table automaton so the DENSE section ships inside the file. It runs
// no §3 preprocessing: Theorem 3.1 makes that O(d) work, so readers redo it
// from the patterns when they need the dictionary. unpack recovers the
// pattern list from a snapshot. inspect prints the header and per-section
// byte layout after checksum validation only, including the dense
// automaton's shape when a DENSE section is present; verify additionally
// restores DENSE and preprocesses the §3 dictionary, the one subcommand that
// builds it.
//
// compile upgrades an existing snapshot in place: it opens the file,
// compiles the internal/dense automaton from its patterns, and atomically
// rewrites the snapshot in the automaton form with the DENSE section added
// (write to a temp file, validate, rename — a crash mid-upgrade leaves the
// original intact). A §3-form file from an older version loses its tables on
// the way. A snapshot that already carries a DENSE section is left untouched
// unless -force. A file that fails validation is moved aside to the same
// .quarantined name matchd uses rather than overwritten.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/persist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dictpack: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "pack":
		cmdPack(os.Args[2:])
	case "unpack":
		cmdUnpack(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "compile":
		cmdCompile(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dictpack pack    -dict patterns.txt [-o dict.dmsnap | -store DIR] [-dense] [options]
  dictpack unpack  -in dict.dmsnap [-o patterns.txt]
  dictpack inspect -in dict.dmsnap [-json]
  dictpack verify  -in dict.dmsnap
  dictpack compile -in dict.dmsnap [-o out.dmsnap] [-max-table BYTES] [-force]`)
	os.Exit(2)
}

func cmdPack(args []string) {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	dictPath := fs.String("dict", "", "file with one pattern per line (required)")
	out := fs.String("o", "", "output snapshot file")
	storeDir := fs.String("store", "", "content-addressed store directory (matchd -cache-dir layout)")
	seed := fs.Uint64("seed", 1, "fingerprint seed")
	ncaFlag := fs.String("nca", "auto", "nearest-colored-ancestor structure: auto, naive, veb")
	anchorFlag := fs.String("anchor", "separator", "Step 1A locate strategy: separator or sa")
	withDense := fs.Bool("dense", false, "also compile the flat-table automaton into a DENSE section")
	fs.Parse(args)
	if *dictPath == "" {
		log.Fatal("pack: -dict is required")
	}
	if (*out == "") == (*storeDir == "") {
		log.Fatal("pack: exactly one of -o or -store is required")
	}
	patterns, err := readPatterns(*dictPath)
	if err != nil {
		log.Fatal(err)
	}
	b := &persist.Bundle{
		Patterns: patterns,
		Options:  core.Options{Seed: *seed, NCA: parseNCA(*ncaFlag), Anchor: parseAnchor(*anchorFlag)},
	}
	if *withDense {
		if b.Automaton, err = dense.Compile(patterns, dense.Options{}); err != nil {
			log.Fatalf("dense compile: %v", err)
		}
	}

	data, dest := b.Encode(), *out
	if *storeDir != "" {
		st, err := persist.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		key := persist.KeyFor(patterns, b.Options)
		if _, err := st.PutBytes(key, data); err != nil {
			log.Fatal(err)
		}
		dest = st.Path(key)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, p := range patterns {
		total += len(p)
	}
	fmt.Printf("packed %d patterns (%d bytes) -> %s (%d bytes, %.2fx)\n",
		len(patterns), total, dest, len(data), float64(len(data))/float64(max(total, 1)))
	if b.Automaton != nil {
		st := b.Automaton.Stats()
		fmt.Printf("dense: %d states x %d symbols, %d table bytes\n",
			st.States, st.Alphabet, st.TableBytes)
	}
}

// cmdCompile upgrades a snapshot in place (or to -o) by compiling the dense
// automaton from the patterns it carries. The write path is the store's
// atomic temp+rename with post-write validation, so the original file
// survives a crash or a bad write; an input that fails validation is
// quarantined, not overwritten.
func cmdCompile(args []string) {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file (required)")
	out := fs.String("o", "", "output file (default: rewrite -in atomically)")
	maxTable := fs.Int64("max-table", 0, "transition-table byte budget (0 = 256 MiB)")
	force := fs.Bool("force", false, "recompile even if a DENSE section is already present")
	fs.Parse(args)
	data := readSnapshot(*in)
	dest := *out
	if dest == "" {
		dest = *in
	}

	b, err := persist.OpenBundle(data)
	if err != nil {
		qpath, qerr := persist.QuarantineFile(*in, err)
		if qerr != nil {
			log.Fatalf("compile: snapshot invalid (%v); quarantine also failed: %v", err, qerr)
		}
		log.Fatalf("compile: snapshot invalid (%v); moved to %s", err, qpath)
	}
	if b.Automaton != nil && !*force {
		st := b.Automaton.Stats()
		fmt.Printf("already compiled: %d states x %d symbols, %d table bytes (use -force to recompile)\n",
			st.States, st.Alphabet, st.TableBytes)
		return
	}

	start := time.Now()
	if b.Automaton, err = dense.Compile(b.Patterns, dense.Options{MaxTableBytes: *maxTable}); err != nil {
		log.Fatalf("compile: %v", err)
	}
	elapsed := time.Since(start)
	upgraded := b.Encode()
	if err := persist.WriteSnapshotFile(dest, upgraded); err != nil {
		log.Fatalf("compile: write %s: %v", dest, err)
	}
	st := b.Automaton.Stats()
	fmt.Printf("compiled %d patterns -> %d states x %d symbols, %d table bytes in %s\n",
		st.Patterns, st.States, st.Alphabet, st.TableBytes, elapsed.Round(time.Microsecond))
	fmt.Printf("%s: %d -> %d bytes (DENSE section added)\n", dest, len(data), len(upgraded))
}

func cmdUnpack(args []string) {
	fs := flag.NewFlagSet("unpack", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file (required)")
	out := fs.String("o", "", "pattern list output (default stdout)")
	fs.Parse(args)
	data := readSnapshot(*in)
	start := time.Now()
	b, err := persist.OpenBundle(data)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	for _, p := range b.Patterns {
		bw.Write(p)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "read %d patterns in %s (no preprocessing)\n",
		len(b.Patterns), elapsed.Round(time.Microsecond))
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file (required)")
	asJSON := fs.Bool("json", false, "emit the Info struct as JSON")
	fs.Parse(args)
	data := readSnapshot(*in)
	info, err := persist.Inspect(data)
	if err != nil {
		log.Fatal(err)
	}
	printInfo(info, *asJSON)
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file (required)")
	fs.Parse(args)
	data := readSnapshot(*in)
	start := time.Now()
	info, err := persist.Verify(data)
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Printf("ok: %d bytes, %d patterns, verified in %s\n",
		info.FileBytes, info.NumPatterns, time.Since(start).Round(time.Microsecond))
}

func printInfo(info *persist.Info, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(info); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("snapshot v%d, %d bytes\n", info.Version, info.FileBytes)
	fmt.Printf("  patterns: %d (%d bytes)\n", info.NumPatterns, info.PatternBytes)
	if info.NumNodes > 0 { // a §3-form file from an older version
		fmt.Printf("  tree:     %d nodes, %d leaves, %d weiner links\n",
			info.NumNodes, info.NumLeaves, info.WeinerCount)
	}
	fmt.Printf("  options:  seed=%d windowL=%d anchor=%d naiveNCA=%v separator=%v\n",
		info.Seed, info.WindowL, info.Anchor, info.UseNaive, info.HasSeparator)
	fmt.Println("  sections:")
	for _, s := range info.Sections {
		fmt.Printf("    %-10s %8d bytes\n", s.Name, s.Bytes)
	}
	if info.Dense != nil {
		fmt.Printf("  dense:    %d states x %d symbols, %d patterns, %d table bytes\n",
			info.Dense.States, info.Dense.Alphabet, info.Dense.Patterns, info.Dense.TableBytes)
	}
}

func parseNCA(s string) core.NCAVariant {
	switch s {
	case "auto":
		return core.NCAAuto
	case "naive":
		return core.NCANaive
	case "veb":
		return core.NCAImproved
	}
	log.Fatalf("unknown -nca %q", s)
	panic("unreachable")
}

func parseAnchor(s string) core.AnchorStrategy {
	switch s {
	case "separator":
		return core.AnchorSeparator
	case "sa":
		return core.AnchorSA
	}
	log.Fatalf("unknown -anchor %q", s)
	panic("unreachable")
}

func readSnapshot(path string) []byte {
	if path == "" {
		log.Fatal("-in is required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	return data
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

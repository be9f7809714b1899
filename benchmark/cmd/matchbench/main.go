// Command matchbench is the black-box loopback benchmark for matchd: it
// builds ./cmd/matchd from the working tree, starts it as a child process
// with default flags, drives it over loopback, verifies every answer against
// internal/ahocorasick and prints every metric by name with its unit. See
// benchmark/README.md.
//
// Usage, from the root of the repository:
//
//	go run ./benchmark/cmd/matchbench [-workload NAME|all] [-seed N] [-seconds N] [-trace 0|1] [-out FILE]
//	go run ./benchmark/cmd/matchbench -compare OLD.json NEW.json
//
// Without -trace, "-workload all" runs every workload untraced and then
// traced; a single workload runs untraced. The last line of output of a
// single-workload run is one JSON object {correct, attempted, failed,
// metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind: the matchd binary, cached
// containers, child logs, temporary cache directories, results and traces.
var outDir = filepath.Join("benchmark", "out")

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 15, "length of each workload's measured window, in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", filepath.Join(outDir, "results.json"), "where to write the run record")
	doCompare := flag.Bool("compare", false, "compare two run records: -compare OLD.json NEW.json")
	flag.Parse()

	if *doCompare {
		os.Exit(compareFiles(flag.Args()))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	var chosen []*workload
	for i := range workloads {
		if *workloadName == "all" || *workloadName == workloads[i].name {
			chosen = append(chosen, &workloads[i])
		}
	}
	if len(chosen) == 0 {
		fatal(fmt.Errorf("no workload %q", *workloadName))
	}
	traceSet := false
	flag.Visit(func(f *flag.Flag) { traceSet = traceSet || f.Name == "trace" })
	modes := []bool{*trace == 1}
	if *workloadName == "all" && !traceSet {
		modes = []bool{false, true}
	}

	if err := os.RemoveAll(filepath.Join(outDir, "logs")); err != nil { // of the run before
		fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		fatal(err)
	}
	bin, err := buildMatchd(outDir)
	if err != nil {
		fatal(err)
	}
	generatorCPUs, serverCPUs, err := isolate() // after the build, which wants every CPU
	if err != nil {
		fatal(err)
	}
	e := &env{ps: &procs{cpus: serverCPUs}, bin: bin, outDir: outDir}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.ps.killAll()
		os.Exit(1)
	}()

	window := time.Duration(*seconds) * time.Second
	rec := newRecord(*seed, window)
	rec.GeneratorCPUs, rec.ServerCPUs = generatorCPUs, serverCPUs
	var traces []*traceDump
	failed := false
	var last string
	for _, traced := range modes {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, w := range chosen {
			var res *result
			var err error
			if traced {
				var dump *traceDump
				res, dump, err = e.runTraced(w, *seed, window)
				traces = append(traces, dump)
			} else {
				res, err = e.runUntraced(w, *seed, window)
			}
			if err != nil {
				e.ps.killAll()
				fatal(fmt.Errorf("%s: %w (child logs under %s)", w.name, err, filepath.Join(outDir, "logs")))
			}
			res.printTable(os.Stdout, defs)
			rec.Results = append(rec.Results, res)
			failed = failed || !res.correct(defs)
			last = res.contractLine(defs)
		}
	}
	rec.ServerProcs = serverProcs(filepath.Join(outDir, "logs"))
	rec.print()
	if err := writeJSON(*out, rec); err != nil {
		fatal(err)
	}
	if len(traces) > 0 {
		if err := writeJSON(filepath.Join(outDir, "trace.json"), traces); err != nil {
			fatal(err)
		}
	}
	fmt.Println(last)
	if failed {
		fatal(fmt.Errorf("error_share > 0 or a metric is missing: see the tables above"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matchbench:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func newRecord(seed uint64, window time.Duration) *record {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &record{
		NProc: runtime.NumCPU(), GeneratorProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: commit,
		Seed: seed, WindowS: window.Seconds(), WarmupS: warmup.Seconds(),
		OpenLoopRate: openLoopRate, FullCheckEvery: fullCheckEvery,
	}
}

var procsLogged = regexp.MustCompile(`\(procs=(\d+)`)

// serverProcs reads the worker count a child reported at start-up (matchd is
// given no -procs, so this is its GOMAXPROCS), or 0 if no log says.
func serverProcs(logDir string) int {
	logs, _ := filepath.Glob(filepath.Join(logDir, "*.log")) // no logs: report 0
	for _, path := range logs {
		data, _ := os.ReadFile(path)
		if m := procsLogged.FindSubmatch(data); m != nil {
			n, _ := strconv.Atoi(string(m[1]))
			return n
		}
	}
	return 0
}

func (rec *record) print() {
	fmt.Printf("\nrun record: nproc %d · generator on CPUs %v with GOMAXPROCS %d, matchd on CPUs %v with %d workers · %s · commit %s · seed %d · window %.1fs after %.1fs warm-up · open loop pinned at %.0f req/s · 1 in %d measured replies fully verified\n",
		rec.NProc, rec.GeneratorCPUs, rec.GeneratorProcs, rec.ServerCPUs, rec.ServerProcs, rec.GoVersion, rec.GitCommit, rec.Seed, rec.WindowS, rec.WarmupS, rec.OpenLoopRate, rec.FullCheckEvery)
}

// compareFiles is -compare: 0 when no row is worse or missing.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: matchbench -compare OLD.json NEW.json")
		return 2
	}
	old, err := readRecord(args[0])
	if err != nil {
		fatal(err)
	}
	new, err := readRecord(args[1])
	if err != nil {
		fatal(err)
	}
	if bad := compare(os.Stdout, old, new); bad > 0 {
		fmt.Printf("\n%d rows worse or missing\n", bad)
		return 1
	}
	fmt.Println("\nno row worse or missing")
	return 0
}

// Command benchtab regenerates the experiment tables recorded in
// EXPERIMENTS.md: one table (or table pair) per claim of the paper.
//
// Usage:
//
//	benchtab [-quick] [-run E7] [-list]
//
// With no flags it runs every experiment at full scale, which takes a few
// minutes on one core; -quick shrinks the inputs for a fast smoke pass.
// The service itself is measured by benchmark/cmd/matchbench, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "use small inputs (seconds instead of minutes)")
	runID := flag.String("run", "", "comma-separated experiment ids to run (e.g. E1,E7); empty = all")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	scale := bench.Full
	if *quick {
		scale = bench.Quick
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(*runID, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[strings.ToUpper(id)] = true
		}
	}
	exps := bench.All()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}
	ran := 0
	for _, e := range exps {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		ran++
		fmt.Printf("## %s — %s\n\nPaper claim: %s\n\n", e.ID, e.Title, e.Claim)
		start := time.Now()
		e.Run(os.Stdout, scale)
		fmt.Printf("\n(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched -run=%s\n", *runID)
		os.Exit(1)
	}
}

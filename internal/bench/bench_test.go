package bench

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// Every experiment must run to completion at Quick scale and produce a
// table (at least one header separator line) without error markers.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(&buf, Quick)
			out := buf.String()
			if !strings.Contains(out, "|--") {
				t.Fatalf("%s produced no table:\n%s", e.ID, out)
			}
			if strings.Contains(out, "ERROR") {
				t.Fatalf("%s reported an error:\n%s", e.ID, out)
			}
		})
	}
}

// All() is exactly the paper's reproduction, E1…E14 in EXPERIMENTS.md order.
func TestExperimentIDsUniqueAndOrdered(t *testing.T) {
	exps := All()
	if len(exps) != 14 {
		t.Fatalf("expected 14 experiments, have %d", len(exps))
	}
	for i, e := range exps {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Fatalf("experiment %d has id %s, want %s", i, e.ID, want)
		}
		if e.Claim == "" || e.Title == "" {
			t.Fatalf("%s missing metadata", e.ID)
		}
	}
}

// The service is measured by benchmark/cmd/matchbench; this package holds
// the paper's experiments only and may not grow a second serving harness.
func TestNoServingImports(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`^"repro/internal/(server|cluster|resilience|czsearch|dense|persist|stream)"$`)
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				if banned.MatchString(imp.Path.Value) {
					t.Errorf("%s imports %s", name, imp.Path.Value)
				}
			}
		}
	}
}

func TestTablePrinterAlignment(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable(&buf, "a", "long-header")
	tb.row(12345, 1.5)
	tb.row("x", "y")
	tb.flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	w := len(lines[0])
	for _, l := range lines {
		if len(l) != w {
			t.Fatalf("misaligned table:\n%s", buf.String())
		}
	}
}

func TestBinaryEncode(t *testing.T) {
	// sigma=4 -> 2 bits: 'a'->00, 'b'->01, 'c'->10, 'd'->11.
	got := string(binaryEncode([]byte("abcd"), 4))
	if got != "0001"+"10"+"11" {
		t.Fatalf("binaryEncode = %q", got)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0.00",
		1.234:   "1.23",
		12345:   "12345",
		0.00001: "1.00e-05",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q want %q", in, got, want)
		}
	}
}

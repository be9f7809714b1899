package repro

// End-to-end tests of the command-line tools: build each binary once and
// drive it through its documented flows.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "repro-bins")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"dictmatch", "lzpack", "optparse", "benchtab", "textgen", "streedump", "dictpack", "matchd"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, tool), "./cmd/"+tool)
			cmd.Dir = "."
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return buildDir
}

func run(t *testing.T, stdin []byte, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = bytes.NewReader(stdin)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, errb.String())
	}
	return out.String(), errb.String()
}

func TestToolDictmatch(t *testing.T) {
	bins := binaries(t)
	dir := t.TempDir()
	dict := filepath.Join(dir, "pats.txt")
	if err := os.WriteFile(dict, []byte("she\nhe\nhers\nhis\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ := run(t, []byte("ushers"), filepath.Join(bins, "dictmatch"), "-dict", dict)
	want := "1\tshe\n2\thers\n"
	if out != want {
		t.Fatalf("dictmatch output %q want %q", out, want)
	}
	// AC engine must agree.
	out2, _ := run(t, []byte("ushers"), filepath.Join(bins, "dictmatch"), "-dict", dict, "-engine", "ac")
	if out2 != want {
		t.Fatalf("ac engine output %q", out2)
	}
	// Stats mode mentions the PRAM ledger.
	_, errOut := run(t, []byte("ushers"), filepath.Join(bins, "dictmatch"), "-dict", dict, "-stats", "-q")
	if !strings.Contains(errOut, "work=") {
		t.Fatalf("stats output missing ledger: %q", errOut)
	}
}

// TestToolDictmatchCompressed: -compressed consumes an lzpack container and
// prints exactly the lines the plain path prints on the expanded text; a
// file that is not an LZ1R1 container exits non-zero with a typed message,
// never a panic.
func TestToolDictmatchCompressed(t *testing.T) {
	bins := binaries(t)
	dictmatch := filepath.Join(bins, "dictmatch")
	dir := t.TempDir()
	dict := filepath.Join(dir, "pats.txt")
	if err := os.WriteFile(dict, []byte("she\nhe\nhers\nhis\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("ushers and his heirs "), 100)

	want, _ := run(t, payload, dictmatch, "-dict", dict)
	packed, _ := run(t, payload, filepath.Join(bins, "lzpack"), "-c")
	got, _ := run(t, []byte(packed), dictmatch, "-dict", dict, "-compressed")
	if got != want {
		t.Fatalf("-compressed output diverges from plain match:\ngot  %q\nwant %q", got, want)
	}
	// -stats reports the compressed-domain economics.
	_, errOut := run(t, []byte(packed), dictmatch, "-dict", dict, "-compressed", "-q", "-stats")
	if !strings.Contains(errOut, "touched=") || !strings.Contains(errOut, "represented=") {
		t.Fatalf("compressed stats missing accounting: %q", errOut)
	}

	// Not a container: non-zero exit, typed message, no panic.
	cmd := exec.Command(dictmatch, "-dict", dict, "-compressed")
	cmd.Stdin = bytes.NewReader(payload)
	combined, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-compressed accepted plain text: %s", combined)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("unexpected run failure: %v", err)
	}
	if !strings.Contains(string(combined), "not an LZ1R1 container") {
		t.Fatalf("rejection message: %q", combined)
	}
	if strings.Contains(string(combined), "panic") {
		t.Fatalf("rejection panicked: %q", combined)
	}
}

func TestToolLzpackRoundTrip(t *testing.T) {
	bins := binaries(t)
	payload := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 200)
	packed, _ := run(t, payload, filepath.Join(bins, "lzpack"), "-c")
	if len(packed) >= len(payload) {
		t.Fatalf("no compression: %d >= %d", len(packed), len(payload))
	}
	for _, mode := range []string{"jump", "cc"} {
		restored, _ := run(t, []byte(packed), filepath.Join(bins, "lzpack"), "-d", "-mode", mode)
		if restored != string(payload) {
			t.Fatalf("mode %s roundtrip failed", mode)
		}
	}
}

func TestToolOptparse(t *testing.T) {
	bins := binaries(t)
	dir := t.TempDir()
	dict := filepath.Join(dir, "words.txt")
	if err := os.WriteFile(dict, []byte("a\nb\naa\naab\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut := run(t, []byte("aaab"), filepath.Join(bins, "optparse"), "-dict", dict, "-emit")
	if out != "0\ta\n1\taab\n" {
		t.Fatalf("optparse parse %q", out)
	}
	if !strings.Contains(errOut, "optimal: 2 phrases") || !strings.Contains(errOut, "greedy: 3 phrases") {
		t.Fatalf("optparse summary %q", errOut)
	}
	// Missing prefix property must be rejected without -close.
	if err := os.WriteFile(dict, []byte("abc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bins, "optparse"), "-dict", dict)
	cmd.Stdin = strings.NewReader("abc")
	if err := cmd.Run(); err == nil {
		t.Fatal("optparse accepted a non-prefix-closed dictionary")
	}
}

func TestToolTextgenAndBenchtab(t *testing.T) {
	bins := binaries(t)
	out, _ := run(t, nil, filepath.Join(bins, "textgen"), "-kind", "fibonacci", "-n", "13")
	if out != "abaababaabaab" {
		t.Fatalf("textgen fibonacci = %q", out)
	}
	// Determinism across runs.
	a, _ := run(t, nil, filepath.Join(bins, "textgen"), "-kind", "dna", "-n", "100", "-seed", "9")
	b, _ := run(t, nil, filepath.Join(bins, "textgen"), "-kind", "dna", "-n", "100", "-seed", "9")
	if a != b {
		t.Fatal("textgen not deterministic")
	}
	// The table runner lists the paper's 14 experiments and nothing else;
	// the retired -json serving harness is a usage error.
	list, _ := run(t, nil, filepath.Join(bins, "benchtab"), "-list")
	if n := strings.Count(list, "claim:"); n != 14 || !strings.HasPrefix(list, "E1 ") || !strings.Contains(list, "\nE14 ") {
		t.Fatalf("benchtab -list shows %d experiments, want E1..E14: %q", n, list)
	}
	if err := exec.Command(filepath.Join(bins, "benchtab"), "-json", "x").Run(); err == nil {
		t.Fatal("benchtab -json x exited zero")
	}
	tbl, _ := run(t, nil, filepath.Join(bins, "benchtab"), "-quick", "-run", "E5")
	if !strings.Contains(tbl, "fault injection") {
		t.Fatalf("benchtab E5 output missing: %q", tbl)
	}
}

// TestToolDictpackCompile drives the snapshot upgrade flow: pack a plain
// snapshot, inspect (no dense section), compile in place, inspect again
// (dense shape printed), verify still passes, a second compile is an
// idempotent no-op, and a corrupted file is quarantined instead of
// overwritten.
func TestToolDictpackCompile(t *testing.T) {
	bins := binaries(t)
	dictpack := filepath.Join(bins, "dictpack")
	dir := t.TempDir()
	pats := filepath.Join(dir, "pats.txt")
	snap := filepath.Join(dir, "dict.dmsnap")
	if err := os.WriteFile(pats, []byte("she\nhe\nhers\nhis\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out, _ := run(t, nil, dictpack, "pack", "-dict", pats, "-o", snap)
	if !strings.Contains(out, "packed 4 patterns") {
		t.Fatalf("pack: %q", out)
	}
	plain, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	out, _ = run(t, nil, dictpack, "inspect", "-in", snap)
	if strings.Contains(out, "dense:") {
		t.Fatalf("plain snapshot inspect already mentions dense: %q", out)
	}

	out, _ = run(t, nil, dictpack, "compile", "-in", snap)
	if !strings.Contains(out, "compiled 4 patterns") || !strings.Contains(out, "DENSE section added") {
		t.Fatalf("compile: %q", out)
	}
	upgraded, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(upgraded) <= len(plain) {
		t.Fatalf("upgrade did not grow the file: %d <= %d", len(upgraded), len(plain))
	}

	out, _ = run(t, nil, dictpack, "inspect", "-in", snap)
	if !strings.Contains(out, "dense:") || !strings.Contains(out, "table bytes") {
		t.Fatalf("upgraded inspect missing dense shape: %q", out)
	}
	out, _ = run(t, nil, dictpack, "verify", "-in", snap)
	if !strings.Contains(out, "ok:") {
		t.Fatalf("verify after upgrade: %q", out)
	}

	// Idempotent: a second compile reports the existing section and leaves
	// the bytes alone.
	out, _ = run(t, nil, dictpack, "compile", "-in", snap)
	if !strings.Contains(out, "already compiled") {
		t.Fatalf("second compile: %q", out)
	}
	same, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(same, upgraded) {
		t.Fatal("idempotent compile rewrote the file")
	}

	// -o writes elsewhere, leaving the input untouched.
	alt := filepath.Join(dir, "alt.dmsnap")
	if err := os.WriteFile(snap, plain, 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, nil, dictpack, "compile", "-in", snap, "-o", alt)
	if got, _ := os.ReadFile(snap); !bytes.Equal(got, plain) {
		t.Fatal("-o compile modified the input file")
	}
	if got, _ := os.ReadFile(alt); !bytes.Equal(got, upgraded) {
		t.Fatalf("-o output differs from in-place upgrade (%d vs %d bytes)", len(got), len(upgraded))
	}

	// Corrupt input: compile must refuse and quarantine, not clobber.
	bad := filepath.Join(dir, "bad.dmsnap")
	mangled := append([]byte(nil), plain...)
	mangled[len(mangled)/2] ^= 0xFF
	if err := os.WriteFile(bad, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(dictpack, "compile", "-in", bad)
	combined, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("compile accepted a corrupt snapshot: %s", combined)
	}
	if !strings.Contains(string(combined), "quarantine") && !strings.Contains(string(combined), "moved to") {
		t.Fatalf("corrupt compile did not mention quarantine: %s", combined)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot still in place after quarantine")
	}
}

func TestToolStreedump(t *testing.T) {
	bins := binaries(t)
	out, _ := run(t, []byte("banana"), filepath.Join(bins, "streedump"), "-locate", "ana")
	if !strings.Contains(out, `"ana" occurs 2 times: 1 3`) {
		t.Fatalf("streedump locate: %q", out)
	}
	if !strings.Contains(out, "longest repeated substring \"ana\"") {
		t.Fatalf("streedump stats: %q", out)
	}
	dot, _ := run(t, []byte("banana"), filepath.Join(bins, "streedump"), "-dot")
	if !strings.Contains(dot, "digraph suffixtree") || strings.Count(dot, "->") != 10 {
		t.Fatalf("streedump dot: %d edges", strings.Count(dot, "->"))
	}
}

// TestToolMatchdFlags pins matchd's flag set by name, so a new flag is a
// deliberate edit here rather than something that accretes.
func TestToolMatchdFlags(t *testing.T) {
	bins := binaries(t)
	out, err := exec.Command(filepath.Join(bins, "matchd"), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("matchd -h: %v\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "  -") {
			got = append(got, strings.Fields(line)[0][1:])
		}
	}
	want := []string{
		"addr", "breaker-cooldown", "breaker-failures", "cache-dir", "chaos-plan",
		"chaos-seed", "cluster-peers", "cluster-self", "dense", "dense-max-table",
		"hedge-after", "hop-floor", "max-body", "max-dicts", "max-inflight",
		"pprof-addr", "procs", "quota-per-tenant", "replicas", "retry-budget",
		"rpc-fault-admin", "stream-window", "timeout",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("matchd has %d flags:\n got %q\nwant %q", len(got), got, want)
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// pollEvery is how often readiness conditions are re-checked. It is the
// resolution of setup_s and restart_s, which are as short as 20 ms.
const pollEvery = 500 * time.Microsecond

// buildMatchd compiles ./cmd/matchd from the working tree into outDir/bin.
func buildMatchd(outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "matchd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/matchd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/matchd: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port by binding 127.0.0.1:0 and releasing it.
// matchd binds it a moment later; cluster peers need every address before any
// node starts, so the port cannot be left for the child to choose.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// procs tracks every child so that an exit on any path — return, signal, or
// a fatal error — leaves none behind. Children also carry Pdeathsig, which
// covers a panic or a SIGKILL of the benchmark itself.
type procs struct {
	cpus []int // CPUs the children are confined to (nil: not confined)
	mu   sync.Mutex
	live map[*node]bool
}

func (ps *procs) killAll() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for n := range ps.live {
		n.kill()
	}
}

// node is one matchd child process.
type node struct {
	name    string
	bin     string
	args    []string
	addr    string
	base    string // http://addr
	cmd     *exec.Cmd
	logPath string // the child's stderr and stdout, all incarnations appended
	started time.Time
	waited  chan struct{} // closed once cmd.Wait returned
	waitErr error
	owner   *procs

	// CPU time and peak RSS of incarnations that already exited.
	pastCPU   time.Duration
	pastRSSKB int64
}

// start executes matchd on a reserved loopback port with the given extra
// flags, in its own process group, logging to logPath.
func (ps *procs) start(name, bin, addr, logPath string, args ...string) (*node, error) {
	n := &node{name: name, bin: bin, args: args, addr: addr, base: "http://" + addr, logPath: logPath, owner: ps}
	if err := n.exec(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *node) exec() error {
	if err := os.MkdirAll(filepath.Dir(n.logPath), 0o755); err != nil {
		return err
	}
	logFile, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logFile.Close() // the child holds its own descriptor after Start
	n.cmd = exec.Command(n.bin, append([]string{"-addr", n.addr}, n.args...)...)
	n.cmd.Stdout = logFile
	n.cmd.Stderr = logFile
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	n.waited = make(chan struct{})
	n.started = time.Now()
	if err := startOn(n.cmd, n.owner.cpus); err != nil {
		return fmt.Errorf("start %s: %w", n.name, err)
	}
	n.owner.mu.Lock()
	if n.owner.live == nil {
		n.owner.live = map[*node]bool{}
	}
	n.owner.live[n] = true
	n.owner.mu.Unlock()
	go func(cmd *exec.Cmd, waited chan struct{}) {
		n.waitErr = cmd.Wait()
		close(waited)
	}(n.cmd, n.waited)
	return nil
}

// kill ends the child's whole process group at once.
func (n *node) kill() {
	if n.cmd != nil && n.cmd.Process != nil {
		_ = syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
}

// exited reports whether the current incarnation has ended.
func (n *node) exited() bool {
	select {
	case <-n.waited:
		return true
	default:
		return false
	}
}

// terminate sends SIGTERM and waits for a clean exit: matchd drains and
// returns status 0. Anything else is an error.
func (n *node) terminate() error {
	n.pastCPU += procCPU(n.cmd.Process.Pid)
	if rss := procPeakRSSKB(n.cmd.Process.Pid); rss > n.pastRSSKB {
		n.pastRSSKB = rss
	}
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", n.name, err)
	}
	select {
	case <-n.waited:
	case <-time.After(20 * time.Second):
		n.kill()
		<-n.waited
		return fmt.Errorf("%s: no exit within 20s of SIGTERM", n.name)
	}
	n.owner.mu.Lock()
	delete(n.owner.live, n)
	n.owner.mu.Unlock()
	if n.waitErr != nil {
		return fmt.Errorf("%s: exit after SIGTERM: %w", n.name, n.waitErr)
	}
	return nil
}

// restart is one SIGTERM → clean exit → re-exec cycle on the same address
// and flags (so the same -cache-dir).
func (n *node) restart() error {
	if err := n.terminate(); err != nil {
		return err
	}
	return n.exec()
}

// cpu is the user+system CPU time of every incarnation so far.
func (n *node) cpu() time.Duration {
	if n.exited() {
		return n.pastCPU
	}
	return n.pastCPU + procCPU(n.cmd.Process.Pid)
}

// peakRSSKB is the largest resident set any incarnation reached.
func (n *node) peakRSSKB() int64 {
	if !n.exited() {
		if rss := procPeakRSSKB(n.cmd.Process.Pid); rss > n.pastRSSKB {
			return rss
		}
	}
	return n.pastRSSKB
}

// logProblem scans the child's output for lines that mean the server
// misbehaved even though requests may have succeeded.
func (n *node) logProblem() string {
	for _, line := range strings.Split(n.logText(), "\n") {
		for _, bad := range []string{"panic", "diverged", "fatal error", "DATA RACE"} {
			if strings.Contains(line, bad) {
				return line
			}
		}
	}
	return ""
}

// poll re-checks cond every pollEvery until it reports done or fails, the
// child exits, or ctx ends; what names the condition in the error.
func (n *node) poll(ctx context.Context, what string, cond func() (done bool, err error)) error {
	for {
		done, err := cond()
		if err != nil {
			return fmt.Errorf("%s: %s: %w", n.name, what, err)
		}
		if done {
			return nil
		}
		if n.exited() {
			return fmt.Errorf("%s exited before %s: %v\n%s", n.name, what, n.waitErr, n.logText())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: no %s before the deadline: %w", n.name, what, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// waitHTTP polls GET base+path until it answers 200.
func (n *node) waitHTTP(ctx context.Context, path string) error {
	return n.poll(ctx, "200 from "+path, func() (bool, error) {
		resp, err := control.Get(n.base + path)
		if err != nil {
			return false, nil // not listening yet
		}
		_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK, nil
	})
}

// procCPU is the user+system CPU time pid has used so far (0 once gone). It
// sums the on-CPU nanoseconds of every thread from
// /proc/<pid>/task/<tid>/schedstat: utime+stime of /proc/<pid>/stat count
// 10 ms ticks by sampling, which is too coarse for requests that cost 0.1 ms.
// Where the kernel keeps no schedstat, the ticks are the fallback.
func procCPU(pid int) time.Duration {
	dir := "/proc/" + strconv.Itoa(pid)
	tasks, _ := os.ReadDir(dir + "/task") // a vanished process reads as no tasks
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	if ns > 0 {
		return time.Duration(ns)
	}
	data, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64) // field 14: utime, in USER_HZ = 100 ticks
	st, _ := strconv.ParseInt(f[12], 10, 64) // field 15: stime
	return time.Duration(ut+st) * (time.Second / 100)
}

// hostCPU reads the first line of /proc/stat: the ticks every CPU of the box
// has counted so far, and those among them the hypervisor gave to someone
// else while the box wanted to run (steal).
func hostCPU() (total, stolen int64) {
	data, _ := os.ReadFile("/proc/stat") // unreadable: no ticks, no share
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i >= 1 && i <= 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 8 {
			stolen = v
		}
	}
	return total, stolen
}

// procPeakRSSKB reads VmHWM of pid from /proc/<pid>/status (0 once gone).
func procPeakRSSKB(pid int) int64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// logText is everything the child has written so far.
func (n *node) logText() string {
	data, _ := os.ReadFile(n.logPath) // a missing log reads as empty
	return string(data)
}

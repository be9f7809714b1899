package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The box gives the benchmark a few CPUs of a shared host. The load
// generator keeps the first of them for itself and matchd gets the others,
// by CPU affinity, not by a flag: matchd sizes itself to the CPUs it finds,
// as it would on a machine of that size. A generator that shares CPUs with
// the server measures the scheduler; and on this host two busy CPUs at once
// run a third slower for seconds to minutes at a time, which one busy CPU
// never does (README, "Where the noise was"). In a closed loop generator and
// server take turns, so apart they are seldom busy together.

// cpuMask is a sched_setaffinity mask of 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < int(n)*8; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// setAffinity confines thread tid (0: the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %v): %w", tid, cpus, errno)
	}
	return nil
}

// isolate splits the CPUs this process may use: it confines every thread of
// the process, and so every thread started later, to the first CPU and
// returns the rest for the children. With a single CPU there is nothing to
// split and both lists are nil.
func isolate() (generator, server []int, err error) {
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) < 2 {
		return nil, nil, err
	}
	generator, server = cpus[:1], cpus[1:]
	runtime.GOMAXPROCS(len(generator))
	for pass := 0; pass < 2; pass++ { // the second catches a thread born during the first
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return nil, nil, err
		}
		for _, t := range tasks {
			tid, _ := strconv.Atoi(t.Name())
			if err := setAffinity(tid, generator); err != nil && !errors.Is(err, syscall.ESRCH) { // ESRCH: it ended meanwhile
				return nil, nil, err
			}
		}
	}
	return generator, server, nil
}

// startOn starts cmd confined to cpus (nil: wherever this process runs). A
// child inherits the affinity of the thread that forks it, so that thread
// moves to cpus for the fork and back.
func startOn(cmd *exec.Cmd, cpus []int) error {
	if len(cpus) == 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	own, err := allowedCPUs()
	if err != nil {
		return err
	}
	if err := setAffinity(0, cpus); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setAffinity(0, own); err != nil {
		return err
	}
	return startErr
}

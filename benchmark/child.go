package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDir receives the server binary. The root .gitignore names it.
const buildDir = ".bench_build"

// buildServer compiles cmd/kv3d-server from the checkout the benchmark
// runs in and returns the binary's path. Its time is the toolchain
// cache's, so it is logged and kept out of setup_s.
func buildServer(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "kv3d-server"))
	if err != nil {
		return "", err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/kv3d-server")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/kv3d-server: %w", err)
	}
	logf("built %s in %.2fs (not part of setup_s)", bin, time.Since(start).Seconds())
	return bin, nil
}

// child is the server under test, a separate process.
type child struct {
	cmd  *exec.Cmd
	addr string
	// gone is done, and ended set, once the process has ended and its
	// stderr is drained.
	gone  sync.WaitGroup
	ended atomic.Bool

	mu   sync.Mutex
	tail []string // last stderr lines, for the report when it dies early
}

// startChild runs the server and waits until it logs its bound address.
func startChild(ctx context.Context, bin string, args []string) (*child, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	// A server that never reports its address is killed, which ends the
	// scan. Signalling can only fail on a process that has already ended,
	// here and below, and then there is nothing left to stop.
	silent := time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() })
	lines := bufio.NewScanner(stderr)
	for c.addr == "" && lines.Scan() {
		c.keep(lines.Text())
		if _, rest, ok := strings.Cut(lines.Text(), "listening on "); ok {
			c.addr, _, _ = strings.Cut(rest, " ")
		}
	}
	silent.Stop()
	if c.addr == "" {
		_ = cmd.Wait() // its stderr, in the error below, says more than its exit status
		return nil, fmt.Errorf("server ended before listening:\n%s", c.stderrTail())
	}
	// Keep the pipe drained, or a chatty server would block on it.
	c.gone.Add(1)
	go func() {
		defer c.gone.Done()
		defer c.ended.Store(true)
		for lines.Scan() {
			c.keep(lines.Text())
		}
		_ = cmd.Wait() // a server this program signals exits non-zero; stats() reports an early exit
	}()
	return c, nil
}

// keep remembers the server's last stderr lines, for the report when it
// dies early.
func (c *child) keep(line string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tail = append(c.tail, line); len(c.tail) > 20 {
		c.tail = c.tail[1:]
	}
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

func (c *child) alive() bool { return !c.ended.Load() }

// stop ends the server and returns once the process is gone.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	unheeded := time.AfterFunc(5*time.Second, func() { _ = c.cmd.Process.Kill() })
	c.gone.Wait()
	unheeded.Stop()
}

// procUsage is what /proc says a process has used so far.
type procUsage struct {
	userUs, sysUs int64
	ctxSwitches   int64
	peakRSSKiB    int64
}

// clockTickUs is the unit of utime and stime in /proc/<pid>/stat: Linux
// reports them in USER_HZ, which is 100 on every supported platform.
const clockTickUs = 10_000

// readUsage reads CPU time, context switches (summed over threads) and
// peak resident size of process pid ("self" for this one).
func readUsage(pid string) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return u, err
	}
	// The command name may hold spaces; fields are counted from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	_, rest, ok := strings.Cut(string(stat), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return u, fmt.Errorf("/proc/%s/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return u, fmt.Errorf("/proc/%s/stat: %w", pid, err)
	}
	u.userUs, u.sysUs = utime*clockTickUs, stime*clockTickUs

	tasks, err := filepath.Glob("/proc/" + pid + "/task/*/status")
	if err != nil {
		return u, err
	}
	for _, t := range tasks {
		st, err := readStatus(t)
		if err != nil {
			continue // a thread that ended between the glob and the read
		}
		u.ctxSwitches += st["voluntary_ctxt_switches"] + st["nonvoluntary_ctxt_switches"]
	}
	st, err := readStatus("/proc/" + pid + "/status")
	if err != nil {
		return u, err
	}
	u.peakRSSKiB = st["VmHWM"]
	return u, nil
}

// readStatus parses the leading integer of every line of a status file.
func readStatus(path string) (map[string]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				out[name] = n
			}
		}
	}
	return out, nil
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"reactivespec/internal/server"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux configuration the benchmark targets).
const clockTicks = 100

// daemon is one running reactived process.
type daemon struct {
	cmd        *exec.Cmd
	base       string // http://host:port
	streamAddr string // raw stream listener, when started with one
	done       chan struct{}
	waitErr    error
	logPath    string
}

// startDaemon launches reactived with args plus its listener flags, under
// dir (which holds the address files and the log), and returns once the
// address files are written and /healthz answers. The returned duration is
// launch → healthy: the daemon's set-up time, recovery included.
func startDaemon(ctx context.Context, o options, dir string, withStream bool, args []string) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addrFile := filepath.Join(dir, "addr")
	streamFile := filepath.Join(dir, "stream-addr")
	os.Remove(addrFile)
	os.Remove(streamFile)
	full := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	if withStream {
		full = append(full, "-stream-addr", "127.0.0.1:0", "-stream-addr-file", streamFile)
	}
	runProvenance.daemonFlags = full
	logPath := filepath.Join(dir, "reactived.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(o.bin, "reactived"), full...)
	cmd.Env = childEnv()
	cmd.Stdout = logf
	cmd.Stderr = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting reactived: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), logPath: logPath}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	hc := &http.Client{Timeout: 2 * time.Second}
	giveUp := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("reactived exited during start-up (%v); log: %s", d.waitErr, d.tail())
		default:
		}
		if time.Now().After(giveUp) {
			d.kill()
			return nil, 0, fmt.Errorf("reactived not healthy after 60s; log: %s", d.tail())
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if withStream && d.streamAddr == "" {
			if b, err := os.ReadFile(streamFile); err == nil && len(b) > 0 {
				d.streamAddr = strings.TrimSpace(string(b))
			}
		}
		if d.base != "" && (!withStream || d.streamAddr != "") {
			if _, err := server.Connect(d.base, server.WithHTTPClient(hc)).Healthz(ctx); err == nil {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// tail returns the end of the daemon's log, for diagnostics.
func (d *daemon) tail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop asks the daemon to drain and exit (SIGTERM) and waits for it,
// killing it if it has not exited after 30s.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.waitErr
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("reactived ignored SIGTERM for 30s")
	}
}

// kill ends the daemon at once (SIGKILL) and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// cpuTime returns the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, utime
	// and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc stat: %q", s)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %q", s)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's peak resident set size (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// launchSetup measures the daemon's set-up time as the median of n
// launches: every launch but the last is killed at once, the last is
// returned running. prepare, when non-nil, resets the daemon's data before
// each launch and is not timed.
func launchSetup(ctx context.Context, o options, dir string, withStream bool, args []string, n int,
	prepare func() error) (*daemon, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return nil, nil, err
			}
		}
		d, took, err := startDaemon(ctx, o, dir, withStream, args)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, took.Seconds())
		if i == n-1 {
			return d, times, nil
		}
		d.kill()
	}
	return nil, nil, fmt.Errorf("launchSetup: n must be at least 1")
}

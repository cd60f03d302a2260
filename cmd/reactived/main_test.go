package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reactivespec/internal/obs"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
)

// startDaemon runs the daemon with a random port and returns its base URL
// plus a cancel that triggers graceful shutdown and waits for exit.
func startDaemon(t *testing.T, extraArgs ...string) (base string, shutdown func() error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extraArgs...)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, os.Stderr) }()

	base = "http://" + readPublished(t, addrFile)
	return base, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(20 * time.Second):
			return context.DeadlineExceeded
		}
	}
}

func TestRunServesAndShutsDownCleanly(t *testing.T) {
	snapDir := filepath.Join(t.TempDir(), "snaps")
	base, shutdown := startDaemon(t, "-snapshot-dir", snapDir, "-snapshot-interval", "0")

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("run returned %v on graceful shutdown", err)
	}
	// Shutdown with a snapshot dir writes a final snapshot.
	if _, err := os.Stat(filepath.Join(snapDir, "current.snap")); err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
}

// readPublished polls until file holds a published address and returns it.
func readPublished(t *testing.T, file string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, err := os.ReadFile(file)
		if err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b))
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote %s", file)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// debugGet fetches path from a debug listener and returns the status and
// body.
func debugGet(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestRunDebugListener pins the -debug-addr surface: pprof answers, there
// is no /debug/vars (every counter lives on /metrics), and /debug/spans
// dumps the tracer of the run that serves it. The runs share this process,
// so a traced run followed by an untraced one shows that each run's
// listener serves its own tracer and not a previous run's.
func TestRunDebugListener(t *testing.T) {
	for _, traced := range []bool{true, false} {
		debugAddrFile := filepath.Join(t.TempDir(), "debug-addr")
		args := []string{"-debug-addr", "127.0.0.1:0", "-debug-addr-file", debugAddrFile}
		if traced {
			args = append(args, "-trace-sample", "1")
		}
		base, shutdown := startDaemon(t, args...)
		debugBase := "http://" + readPublished(t, debugAddrFile)

		if code, _ := debugGet(t, debugBase, "/debug/pprof/"); code != http.StatusOK {
			t.Fatalf("traced=%v: GET /debug/pprof/ status %d, want 200", traced, code)
		}
		if code, _ := debugGet(t, debugBase, "/debug/vars"); code != http.StatusNotFound {
			t.Fatalf("traced=%v: GET /debug/vars status %d, want 404", traced, code)
		}

		evs := make([]trace.Event, 64)
		for i := range evs {
			evs[i] = trace.Event{Branch: trace.BranchID(i % 4), Taken: i%2 == 0, Gap: 3}
		}
		if _, err := server.Connect(base).IngestKind(context.Background(), "p", trace.KindBranch, evs); err != nil {
			t.Fatalf("traced=%v: ingest: %v", traced, err)
		}
		code, body := debugGet(t, debugBase, "/debug/spans")
		if !traced {
			if code != http.StatusNotFound {
				t.Fatalf("untraced run: GET /debug/spans status %d, want 404", code)
			}
		} else {
			if code != http.StatusOK {
				t.Fatalf("traced run: GET /debug/spans status %d, want 200:\n%s", code, body)
			}
			spans, dropped, err := obs.LoadSpans(bytes.NewReader(body))
			if err != nil || dropped != 0 || len(spans) == 0 {
				t.Fatalf("traced run: /debug/spans = %d spans, %d unparsable lines, %v; want spans from the ingest:\n%s",
					len(spans), dropped, err, body)
			}
		}

		if err := shutdown(); err != nil {
			t.Fatalf("traced=%v: run returned %v on graceful shutdown", traced, err)
		}
	}
}

// TestRunStreamListener exercises the raw -stream-addr listener end to end:
// a session ingests over it, and a graceful shutdown terminates the session
// with a typed draining error rather than a connection reset.
func TestRunStreamListener(t *testing.T) {
	streamAddrFile := filepath.Join(t.TempDir(), "stream-addr")
	base, shutdown := startDaemon(t,
		"-stream-addr", "127.0.0.1:0",
		"-stream-addr-file", streamAddrFile)

	streamAddr := readPublished(t, streamAddrFile)

	ctx := context.Background()
	c := server.Connect(base)
	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := server.ParseInfoParamsHash(info)
	if err != nil {
		t.Fatal(err)
	}
	st, err := server.DialStream(ctx, streamAddr, "p", hash)
	if err != nil {
		t.Fatalf("DialStream: %v", err)
	}
	evs := make([]trace.Event, 200)
	for i := range evs {
		evs[i] = trace.Event{Branch: trace.BranchID(i % 8), Taken: i%3 == 0, Gap: 5}
	}
	if err := st.SendKind(ctx, trace.KindBranch, evs); err != nil {
		t.Fatal(err)
	}
	ds, err := st.Recv(ctx)
	if err != nil || len(ds) != len(evs) {
		t.Fatalf("Recv = %d decisions, %v; want %d", len(ds), err, len(evs))
	}

	// Graceful shutdown with the session still open: the daemon must drain
	// it (typed terminal) and still exit cleanly.
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- shutdown() }()
	recvCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := st.Recv(recvCtx); !errors.Is(err, server.ErrDraining) {
		t.Fatalf("Recv during shutdown = %v, want ErrDraining", err)
	}
	st.Close()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("run returned %v on graceful shutdown", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "not a listen address"},
		{"positional"},
		// Streaming ingest listens on -stream-addr alone.
		{"-stream-unix", "s.sock"},
		{"-stream-unix-file", "s.txt"},
		{"-trace-sample", "-1"},
	} {
		if err := run(context.Background(), args, os.Stderr); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunListenerFailureReleasesAddr pins that a listener which fails to
// bind does not strand the ones bound before it: with -stream-addr taken,
// run fails after the HTTP listener has published its address, and that
// address must no longer accept connections once run returns.
func TestRunListenerFailureReleasesAddr(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	addrFile := filepath.Join(t.TempDir(), "addr")
	err = run(context.Background(), []string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-stream-addr", taken.Addr().String(),
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-stream-addr") {
		t.Fatalf("run = %v, want a -stream-addr listen failure", err)
	}
	b, err := os.ReadFile(addrFile)
	if err != nil || len(b) == 0 {
		t.Fatalf("the HTTP listener never published its address: %q, %v", b, err)
	}
	if c, err := net.DialTimeout("tcp", string(b), time.Second); err == nil {
		c.Close()
		t.Fatalf("the HTTP listener at %s still accepts connections after run returned", b)
	}
}

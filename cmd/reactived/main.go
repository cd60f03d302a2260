// Command reactived is the networked speculation-control daemon: it hosts a
// sharded table of reactive controllers (internal/server), ingests batches
// of branch-outcome events over HTTP in the internal/trace frame format,
// serves classification decisions back, snapshots table state to disk with
// atomic rename, and restores it on start.
//
// Usage:
//
//	reactived [flags]
//
// Flags:
//
//	-addr a               listen address (default 127.0.0.1:8344; use :0 for a random port)
//	-addr-file f          write the bound address to f once listening (for scripts)
//	-stream-addr a        also accept raw-TCP streaming ingest sessions on this address
//	-stream-addr-file f   write the bound stream address to f once listening
//	-shards n             lock-stripe count for the controller table; each
//	                      program and kind lives in one stripe (default 16)
//	-param-scale k        divide the paper's Table 2 parameters by k (default 10)
//	-policy p             speculation policy every table entry runs: reactive
//	                      (the paper's FSM, default), selftrain (classify once
//	                      after the monitor window, never revisit), or
//	                      probweight (EWMA-weighted probabilistic selection).
//	                      The policy is mixed into the params hash, so clients
//	                      pinned to another policy's decisions are rejected.
//	-kinds k1,k2          speculation kinds to serve (default all: branch,
//	                      value, memdep, tlspec); requests for other kinds are
//	                      rejected with the unsupported_kind code
//	-snapshot-dir d       enable snapshot/restore under directory d
//	-snapshot-interval t  periodic snapshot interval (default 30s; 0 = only on shutdown)
//	-wal-dir d            enable the write-ahead event log under directory d
//	-wal-fsync p          WAL fsync policy: always, interval[=dur], or never (default interval)
//	-wal-segment-bytes n  WAL segment rotation threshold (default 64 MiB)
//	-replication-addr a   serve WAL replication to followers on this address (requires -wal-dir)
//	-replication-addr-file f  write the bound replication address to f once listening
//	-replica-of a         run as a read-only replica of the primary's replication
//	                      listener at a (requires -wal-dir)
//	-debug-addr a         serve net/http/pprof and /debug/spans on a separate
//	                      listener
//	-debug-addr-file f    write the bound debug address to f once listening
//	-trace-spans f        append sampled end-to-end batch spans to f as JSONL
//	                      (analyze with `reactivespec spans`)
//	-trace-sample n       trace 1 in n ingest batches (0 disables tracing;
//	                      -trace-spans alone implies 1)
//
// With -wal-dir, every ingested frame is appended to a segmented write-ahead
// log before it is applied, and startup becomes restore-snapshot → replay
// WAL tail → resume: a SIGKILL loses at most the tail the fsync policy
// permits, and recovery reproduces byte-identical decisions for everything
// durably logged. Snapshots anchor the log — segments wholly covered by the
// latest durable snapshot are deleted.
//
// Replication: a primary started with -replication-addr ships its WAL to
// attached followers (only records it has fsynced). A daemon started with
// -replica-of runs read-only — client ingest is rejected with the read_only
// code while every shipped record flows through the same log-before-apply
// path as primary ingest — and is promoted to a writable primary by SIGUSR1
// or POST /v1/promote, which seals replication first so no record can land
// after the flip. GET /v1/cursor reports per-(program, kind) applied-event
// counts, the resume point failover clients re-send from.
//
// Endpoints: POST /v1/ingest, GET /v1/decide, GET /v1/cursor, GET /v1/info,
// GET /healthz, GET /metrics, POST /v1/snapshot, POST /v1/promote; ingest,
// decide and cursor name the speculation kind in an optional kind= query
// (absent means branch). Streaming ingest sessions are served on
// the raw TCP listener -stream-addr. Every daemon counter — table totals,
// verdicts, transitions, WAL position, replication lag — is read from
// /metrics. With -debug-addr, a second listener serves the runtime
// profiling surface — GET /debug/pprof/ (CPU, heap, goroutine, block
// profiles) and GET /debug/spans (the tracer's retained span ring) — kept
// off the serving address so profiling traffic can be firewalled
// separately. SIGINT/SIGTERM drain in-flight batches, take a final snapshot
// (when -snapshot-dir is set), and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/obs"
	"reactivespec/internal/replica"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reactived:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reactived", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (use :0 for a random port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	streamAddr := fs.String("stream-addr", "",
		"also accept raw-TCP streaming ingest sessions on this address (use :0 for a random port)")
	streamAddrFile := fs.String("stream-addr-file", "",
		"write the bound stream address to this file once listening")
	shards := fs.Int("shards", 16,
		"lock-stripe count for the controller table; each program and kind lives in one stripe")
	paramScale := fs.Uint64("param-scale", 10, "divide the paper's Table 2 parameters by this factor")
	policyFlag := fs.String("policy", core.PolicyReactive,
		"speculation policy every table entry runs: "+strings.Join(core.PolicyNames(), ", "))
	kindsFlag := fs.String("kinds", "",
		"comma-separated speculation kinds to serve (default all: "+strings.Join(trace.KindNames(), ",")+")")
	snapshotDir := fs.String("snapshot-dir", "", "enable snapshot/restore under this directory")
	snapshotInterval := fs.Duration("snapshot-interval", 30*time.Second,
		"periodic snapshot interval (0 = only on shutdown)")
	walDir := fs.String("wal-dir", "", "enable the write-ahead event log under this directory")
	walFsync := fs.String("wal-fsync", "interval",
		"WAL fsync policy: always, interval[=duration], or never")
	walSegmentBytes := fs.Int64("wal-segment-bytes", wal.DefaultSegmentBytes,
		"WAL segment rotation threshold in bytes")
	replicationAddr := fs.String("replication-addr", "",
		"serve WAL replication to followers on this address (requires -wal-dir; use :0 for a random port)")
	replicationAddrFile := fs.String("replication-addr-file", "",
		"write the bound replication address to this file once listening")
	replicaOf := fs.String("replica-of", "",
		"run as a read-only replica of the primary's replication listener at this address (requires -wal-dir)")
	debugAddr := fs.String("debug-addr", "",
		"serve net/http/pprof and /debug/spans on this separate listener (use :0 for a random port)")
	debugAddrFile := fs.String("debug-addr-file", "",
		"write the bound debug address to this file once listening")
	traceSpans := fs.String("trace-spans", "",
		"append sampled end-to-end batch spans to this file as JSONL")
	traceSample := fs.Int("trace-sample", 0,
		"trace 1 in n ingest batches (0 disables tracing; -trace-spans alone implies 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(out, "reactived: "+format+"\n", a...)
	}
	// listen binds the listener of -flag, publishes its bound address in
	// -flag-file when one is named (for scripts), and logs it. The caller
	// closes the listener; a failed file write closes it here.
	listen := func(flag, addr, file string) (net.Listener, error) {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("listening on -%s: %w", flag, err)
		}
		if file != "" {
			if err := os.WriteFile(file, []byte(ln.Addr().String()), 0o644); err != nil {
				ln.Close()
				return nil, fmt.Errorf("writing -%s-file: %w", flag, err)
			}
		}
		logf("-%s listening on %s", flag, ln.Addr())
		return ln, nil
	}
	params := core.DefaultParams().Scaled(*paramScale)

	// Validate the policy, kind list and sampling rate before anything
	// touches disk or the network; server.New would panic on an unknown
	// policy.
	if *traceSample < 0 {
		return fmt.Errorf("-trace-sample must be non-negative")
	}
	if !core.ValidPolicy(*policyFlag) {
		return fmt.Errorf("unknown -policy %q (registered: %s)",
			*policyFlag, strings.Join(core.PolicyNames(), ", "))
	}
	var kinds []trace.Kind
	if *kindsFlag != "" {
		for _, name := range strings.Split(*kindsFlag, ",") {
			k, err := trace.ParseKind(strings.TrimSpace(name))
			if err != nil {
				return fmt.Errorf("parsing -kinds: %w", err)
			}
			kinds = append(kinds, k)
		}
	}

	// Replication in either role rides on the WAL: the shipper serves it,
	// the follower logs into it before applying.
	if *replicaOf != "" && *walDir == "" {
		return fmt.Errorf("-replica-of requires -wal-dir (the replica logs shipped records before applying them)")
	}
	if *replicationAddr != "" && *walDir == "" {
		return fmt.Errorf("-replication-addr requires -wal-dir (replication ships the write-ahead log)")
	}

	// The span tracer rides every layer (server, WAL, replication), so it is
	// built first; a nil tracer is the off switch — each instrumented call
	// site pays one predictable nil-check branch.
	sampleN := *traceSample
	if *traceSpans != "" && sampleN == 0 {
		sampleN = 1
	}
	var tracer *obs.Tracer
	if sampleN > 0 {
		node := "primary"
		if *replicaOf != "" {
			node = "replica"
		}
		tracer = obs.NewTracer(node, sampleN)
		if *traceSpans != "" {
			f, err := os.OpenFile(*traceSpans, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("opening -trace-spans: %w", err)
			}
			defer f.Close()
			tracer.SetOutput(f)
			defer tracer.Close()
		}
		logf("span tracing enabled (node=%s, 1 in %d batches, spans=%s)",
			tracer.Node(), sampleN, *traceSpans)
	}

	var wlog *wal.Log
	if *walDir != "" {
		policy, interval, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			return fmt.Errorf("parsing -wal-fsync: %w", err)
		}
		wlog, err = wal.Open(wal.Options{
			Dir:          *walDir,
			ParamsHash:   server.ParamsPolicyHash(params, *policyFlag),
			SegmentBytes: *walSegmentBytes,
			Policy:       policy,
			Interval:     interval,
			Logf:         logf,
			Trace:        tracer,
		})
		if err != nil {
			return fmt.Errorf("opening wal: %w", err)
		}
		defer wlog.Close()
		logf("wal enabled under %s (fsync=%s)", *walDir, policy)
	}

	s := server.New(server.Config{
		Params:      params,
		Policy:      *policyFlag,
		Kinds:       kinds,
		Shards:      *shards,
		SnapshotDir: *snapshotDir,
		WAL:         wlog,
		Replica:     *replicaOf != "",
		Logf:        logf,
		Trace:       tracer,
	})
	rec, err := s.Recover()
	if err != nil {
		return fmt.Errorf("recovering state: %w", err)
	}
	if !rec.SnapshotRestored && *snapshotDir != "" {
		logf("no snapshot under %s; starting fresh", *snapshotDir)
	}

	// Replication starts only after recovery: the WAL's numbering is final
	// by now (AlignSeq has run), so both the shipper's retained range and
	// the follower's resume point are exact.
	var follower *replica.Follower
	var followerDone <-chan struct{}
	if *replicationAddr != "" {
		sh := replica.NewShipper(replica.ShipperConfig{Log: wlog, Logf: logf, Trace: tracer})
		sh.RegisterMetrics(s.Registry())
		rln, err := listen("replication-addr", *replicationAddr, *replicationAddrFile)
		if err != nil {
			return err
		}
		defer rln.Close()
		go sh.Serve(rln)
		defer sh.Close()
	}
	if *replicaOf != "" {
		follower = replica.StartFollower(replica.FollowerConfig{
			Addr:       *replicaOf,
			ParamsHash: server.ParamsPolicyHash(params, *policyFlag),
			NextSeq:    wlog.NextSeq,
			Apply:      s.ApplyReplicated,
			Logf:       logf,
			Trace:      tracer,
		})
		s.SetSealFunc(follower.Seal)
		follower.RegisterMetrics(s.Registry())
		defer follower.Seal()
		followerDone = follower.Done()
		logf("replica mode: following %s from wal seq %d (SIGUSR1 or POST /v1/promote to promote)",
			*replicaOf, wlog.NextSeq())
	}

	// SIGUSR1 promotes a replica in place, for failover drivers that only
	// hold a pid.
	promoteCh := make(chan os.Signal, 1)
	signal.Notify(promoteCh, syscall.SIGUSR1)
	defer signal.Stop(promoteCh)

	ln, err := listen("addr", *addr, *addrFile)
	if err != nil {
		return err
	}
	defer ln.Close()
	logf("serving %d shards, param scale 1/%d, policy %s, kinds %s",
		*shards, *paramScale, s.Table().Policy(), strings.Join(s.KindNames(), ","))

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// The raw stream listener: every streaming ingest session arrives here.
	if *streamAddr != "" {
		sln, err := listen("stream-addr", *streamAddr, *streamAddrFile)
		if err != nil {
			return err
		}
		defer sln.Close()
		go func() {
			// The accept error is expected at shutdown when the deferred
			// Close tears the listener down.
			s.ServeStream(sln)
		}()
	}

	// The runtime profiling surface, on a separate listener so debug
	// traffic never shares a port with ingest.
	if *debugAddr != "" {
		dln, err := listen("debug-addr", *debugAddr, *debugAddrFile)
		if err != nil {
			return err
		}
		defer dln.Close()
		go func() {
			// The error is expected at shutdown when the deferred Close
			// tears the listener down.
			http.Serve(dln, debugMux(tracer))
		}()
	}

	snapTick := make(<-chan time.Time)
	var ticker *time.Ticker
	if *snapshotDir != "" && *snapshotInterval > 0 {
		ticker = time.NewTicker(*snapshotInterval)
		defer ticker.Stop()
		snapTick = ticker.C
	}

	for {
		select {
		case <-snapTick:
			if _, err := s.SnapshotNow(); err != nil {
				logf("periodic snapshot failed: %v", err)
			}
		case <-promoteCh:
			if res, err := s.Promote(); err != nil {
				logf("promote (SIGUSR1): %v", err)
			} else {
				logf("promoted to primary at wal seq %d (SIGUSR1)", res.LastAppliedSeq)
			}
		case <-followerDone:
			// The follower stops for good on a permanent error (mismatch,
			// compaction gap, divergence) — surface it and exit rather than
			// serving a replica that silently stopped replicating. A sealed
			// follower (promotion) reports no error; keep serving.
			if err := follower.Err(); err != nil {
				return fmt.Errorf("replication failed: %w", err)
			}
			followerDone = nil
		case err := <-serveErr:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		case <-ctx.Done():
			logf("shutting down: draining in-flight batches and stream sessions")
			s.BeginDrain()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			// Stream connections are outside http.Server's bookkeeping,
			// so Shutdown alone would not wait for them: WaitStreams
			// covers the sessions BeginDrain just nudged.
			if err := s.WaitStreams(shutdownCtx); err != nil {
				logf("shutdown: %v", err)
			}
			err := hs.Shutdown(shutdownCtx)
			cancel()
			if err != nil {
				logf("shutdown: %v", err)
			}
			if *snapshotDir != "" {
				if _, err := s.SnapshotNow(); err != nil {
					return fmt.Errorf("final snapshot: %w", err)
				}
				logf("final snapshot written")
			}
			return nil
		}
	}
}

// debugMux is one run's -debug-addr surface: the net/http/pprof handlers and
// /debug/spans, a JSONL dump of tracer's retained span ring (the newest
// DefaultTraceRing spans, in the same byte-deterministic encoding as the
// -trace-spans file). tracer is nil when tracing is off, and /debug/spans
// then answers 404.
func debugMux(tracer *obs.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			http.Error(w, "span tracing disabled (start with -trace-sample)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		tracer.WriteJSONL(w)
	})
	return mux
}

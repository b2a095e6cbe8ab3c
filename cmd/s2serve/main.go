// Command s2serve is the verification-as-a-service daemon: it boots the
// distributed pipeline once over a directory of device configurations,
// keeps the converged per-worker state resident, and serves an HTTP/JSON
// API for staging config deltas (POST /v1/configs), incremental
// re-verification (POST /v1/verify), warm queries (GET /v1/queries), and
// batched reachability queries (POST /v1/queries) answered through the
// coalescing, epoch-cached, intent-sliced query plane.
//
// Serving-mode telemetry rides along: per-request traces (GET
// /debug/traces), a delta audit journal (GET /v1/audit, -audit-log),
// structured logs (-log-level, -log-json), and RED metrics on /metrics.
//
// Usage:
//
//	s2serve -configs DIR [-addr :8642] [-workers N] [-shards M]
//	        [-workers-at host:port,...] [-scheme S] [-procs N] [-seed S]
//	        [-rpc-timeout D] [-retries N] [-recover] [-heartbeat-interval D]
//	        [-v] [-log-level info] [-log-json] [-audit-log FILE]
//	        [-slow-worker N]
//
// The verifier options (-workers through -recover) are the ones cmd/s2
// takes, defined once in s2.Options.RegisterFlags.
//
// Its telemetry has fixed sizes: 512 request traces with the 16 slowest
// kept and 1024 audit entries in memory. Worker vitals are sampled into
// the s2_worker_* gauges every -heartbeat-interval, or else every 5s.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"s2"
	"s2/internal/obs"
	"s2/internal/serve"
)

func main() {
	var opts s2.Options
	opts.RegisterFlags(flag.CommandLine)
	newLogger := obs.LogFlags("info")
	var (
		configs    = flag.String("configs", "", "directory of *.cfg device configurations (required)")
		addr       = flag.String("addr", ":8642", "HTTP listen address for the API (and /metrics)")
		verbose    = flag.Bool("v", false, "log the boot verification summary")
		auditLog   = flag.String("audit-log", "", "append every audit entry as a JSON line to this file")
		slowWorker = flag.Int("slow-worker", -1, "delay this worker's phase RPCs by 25ms each (straggler experiment; -1 = off)")
	)
	flag.Parse()
	if *configs == "" {
		flag.Usage()
		os.Exit(2)
	}

	logger, err := newLogger()
	fatal(err)

	network, err := s2.LoadDirectory(*configs)
	fatal(err)
	logger.LogAttrs(context.Background(), slog.LevelInfo, "configs parsed",
		slog.Int("devices", network.Size()), slog.String("dir", *configs))

	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	opts.KeepRIBs = true // RIB queries are part of the API surface
	opts.Metrics = reg
	opts.Tracer = tracer
	opts.Logger = logger
	if *slowWorker >= 0 {
		opts.SlowWorker = *slowWorker
		opts.SlowWorkerDelay = slowWorkerDelay
	}
	v, err := s2.NewVerifier(network, opts)
	fatal(err)
	defer v.Close()
	for _, warn := range v.TopologyWarnings() {
		logger.LogAttrs(context.Background(), slog.LevelWarn, "topology warning", slog.String("warning", warn))
	}

	var journal *serve.Journal
	if *auditLog != "" {
		auditSink, err := os.OpenFile(*auditLog, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		fatal(err)
		defer auditSink.Close()
		journal = serve.NewJournal(auditSink)
	} else {
		journal = serve.NewJournal(nil)
	}

	// Boot verification: converge once so every query after startup is warm.
	start := time.Now()
	warnings, err := v.ComputeDataPlane()
	fatal(err)
	report, err := v.CheckAllPairs()
	fatal(err)
	bootTook := time.Since(start)
	logger.LogAttrs(context.Background(), slog.LevelInfo, "boot verification done",
		slog.Duration("took", bootTook.Round(time.Millisecond)),
		slog.Uint64("epoch", v.Epoch()), slog.Int("shards", v.ShardCount()))
	if *verbose {
		for _, warn := range warnings {
			logger.LogAttrs(context.Background(), slog.LevelWarn, "FIB warning", slog.String("warning", warn))
		}
		fmt.Println(report)
	}

	// The boot run is the journal's first entry: every shard ran.
	bootShards := make([]int, v.ShardCount())
	for i := range bootShards {
		bootShards[i] = i
	}
	journal.Record(serve.AuditEntry{
		Epoch:       v.Epoch(),
		Time:        time.Now(),
		Class:       "boot",
		Mode:        "boot",
		DirtyShards: bootShards,
		DirtyCount:  v.ShardCount(),
		TotalShards: v.ShardCount(),
		Seconds:     bootTook.Seconds(),
		Outcome:     "ok",

		RecompiledNodes: len(v.Devices()),
	})

	// SIGQUIT dumps the flight recorder and keeps serving.
	flight := v.FlightRecorder()
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintln(os.Stderr, "s2serve: SIGQUIT — flight recorder dump:")
			flight.WriteTo(os.Stderr)
		}
	}()

	lis, err := net.Listen("tcp", *addr)
	fatal(err)
	srv := serve.New(v, serve.Options{
		Registry: reg,
		Tracer:   tracer,
		Logger:   logger,
		Audit:    journal,
	})
	fmt.Printf("s2serve: serving on http://%s\n", lis.Addr())

	// SIGINT/SIGTERM shut down cleanly (Close tears down workers).
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	httpSrv := newHTTPServer(srv.Handler())
	go func() {
		<-stop
		logger.Info("shutting down")
		httpSrv.Close()
	}()
	if err := httpSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

// slowWorkerDelay is the per-call delay -slow-worker injects.
const slowWorkerDelay = 25 * time.Millisecond

// Connection timeouts of the API server. A client that never finishes its
// request headers, or leaves a keep-alive connection idle, is disconnected
// instead of holding the connection forever. There is no write timeout: a
// full re-verification can legitimately take seconds to answer.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the API server around h with the connection timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "s2serve:", err)
		os.Exit(1)
	}
}

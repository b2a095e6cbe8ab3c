// Command s2 verifies a directory of device configurations: it simulates
// the control plane across distributed workers, builds the data plane, and
// checks all-pair reachability plus loop- and blackhole-freedom.
//
// Usage:
//
//	s2 -configs DIR [-workers N] [-shards M] [-scheme metis|random|expert]
//	   [-workers-at host:port,host:port]  # remote workers via cmd/s2worker
//	   [-ribs] [-budget BYTES] [-spill DIR] [-v]
//	   [-trace out.json] [-obs-addr 127.0.0.1:9090]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"s2"
	"s2/internal/obs"
)

func main() {
	var (
		configs    = flag.String("configs", "", "directory of *.cfg device configurations (required)")
		workers    = flag.Int("workers", 4, "number of in-process workers")
		workerAddr = flag.String("workers-at", "", "comma-separated sidecar addresses of remote workers (overrides -workers)")
		shards     = flag.Int("shards", 1, "prefix shard count (>1 enables sharding)")
		scheme     = flag.String("scheme", "metis", "partition scheme: metis|random|expert|imbalanced|commheavy")
		budget     = flag.Int64("budget", 0, "modelled per-worker memory budget in bytes (0 = unlimited)")
		spill      = flag.String("spill", "", "directory for spilling shard results between rounds")
		seed       = flag.Int64("seed", 1, "seed for partitioning and shard shuffling")
		showRIBs   = flag.Bool("ribs", false, "print every device's computed routes")
		checkDst   = flag.String("check-dst", "", "run a single-pair query: destination prefix (a.b.c.d/len)")
		checkFrom  = flag.String("check-from", "", "single-pair query: source node (with -check-dst)")
		checkTo    = flag.String("check-to", "", "single-pair query: destination node (with -check-dst)")
		checkVia   = flag.String("check-via", "", "single-pair query: required waypoint node (optional)")
		rpcTimeout = flag.Duration("rpc-timeout", 0, "deadline per worker RPC attempt (0 = none); also applied to worker peer calls")
		retries    = flag.Int("retries", 0, "extra attempts for idempotent worker RPCs that fail transiently")
		heartbeat  = flag.Duration("heartbeat-interval", 0, "ping workers at this interval; 3 consecutive misses declare a worker dead (0 = off)")
		recoverOn  = flag.Bool("recover", false, "on worker death, re-partition its segment onto survivors and re-execute")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON file of the run (open in chrome://tracing or ui.perfetto.dev)")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics, /healthz, /progress, and /debug/pprof on this address")
		procs      = flag.Int("procs", 0, "per-worker goroutine pool for the simulation phases (0 = all CPUs, 1 = sequential)")
		gcStress   = flag.Bool("gc-stress", false, "collect the BDD engine at every safe point the table grew (CI smoke knob; results are byte-identical)")
		showReport = flag.Bool("report", false, "print the per-worker × per-stage attribution table after the run")
		reportJSON = flag.String("report-json", "", "write the attribution report as JSON to this file (- for stdout)")
		flightLog  = flag.String("flight-log", "", "write the controller's flight-recorder events to this file at exit")
		logLevel   = flag.String("log-level", "warn", "structured log level on stderr: debug|info|warn|error|off")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON lines (default: logfmt-style text)")
		verbose    = flag.Bool("v", false, "print phase timings and per-worker stats")
	)
	flag.Parse()
	if *configs == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Structured logs go to stderr: stdout is the report surface and is
	// diffed by the comparison harnesses.
	level, err := obs.ParseLogLevel(*logLevel)
	fatal(err)
	logger := obs.NewLogger(os.Stderr, level, *logJSON)

	net, err := s2.LoadDirectory(*configs)
	fatal(err)
	fmt.Printf("parsed %d devices from %s\n", net.Size(), *configs)

	waypointBits := 0
	if *checkVia != "" {
		waypointBits = 1
	}
	opts := s2.Options{
		WaypointBits:      waypointBits,
		Workers:           *workers,
		PartitionScheme:   *scheme,
		Shards:            *shards,
		Seed:              *seed,
		MemoryBudgetBytes: *budget,
		SpillDir:          *spill,
		KeepRIBs:          *showRIBs,
		RPCTimeout:        *rpcTimeout,
		RPCRetries:        *retries,
		HeartbeatInterval: *heartbeat,
		Recover:           *recoverOn,
		Parallelism:       *procs,
		GCStress:          *gcStress,
		Logger:            logger,
	}
	if *workerAddr != "" {
		opts.WorkerAddrs = strings.Split(*workerAddr, ",")
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		opts.Tracer = tracer
	}
	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		opts.FleetPlane = true
	}
	v, err := s2.NewVerifier(net, opts)
	fatal(err)
	defer v.Close()

	// SIGQUIT dumps the flight recorder to stderr and keeps running — the
	// in-flight verification is not disturbed.
	flight := v.FlightRecorder()
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintln(os.Stderr, "s2: SIGQUIT — flight recorder dump:")
			flight.WriteTo(os.Stderr)
		}
	}()
	if *flightLog != "" {
		defer func() {
			f, err := os.Create(*flightLog)
			if err != nil {
				fmt.Fprintln(os.Stderr, "s2: flight-log:", err)
				return
			}
			flight.WriteTo(f)
			f.Close()
		}()
	}

	if *obsAddr != "" {
		isrv, err := obs.ServeIntrospection(*obsAddr, obs.ServerOptions{
			Registry: reg,
			Health: func() any {
				return map[string]any{"role": "controller", "faults": v.FaultStats()}
			},
			Progress: func() any { return v.Progress() },
			Flight:   flight,
			Dashboard: &obs.Dashboard{
				Health:  func() any { return v.FleetHealth() },
				History: v.History(),
			},
			Profiles: v.Profiles(),
			ProfilePull: func(worker int, kind string, seconds int) (*obs.Profile, error) {
				return v.PullWorkerProfile(worker, kind, seconds)
			},
		})
		fatal(err)
		defer isrv.Close()
		fmt.Printf("introspection on http://%s/metrics\n", isrv.Addr())
	}

	for _, w := range v.TopologyWarnings() {
		fmt.Printf("warning: %s\n", w)
	}

	start := time.Now()
	fatal(v.SimulateControlPlane())
	fmt.Printf("control plane converged in %v\n", time.Since(start).Round(time.Millisecond))

	warnings, err := v.ComputeDataPlane()
	fatal(err)
	for _, w := range warnings {
		fmt.Printf("warning: %s\n", w)
	}

	report, err := v.CheckAllPairs()
	fatal(err)
	fmt.Println(report)

	if *checkDst != "" {
		q := s2.Query{DstPrefix: *checkDst}
		if *checkFrom != "" {
			q.Sources = []string{*checkFrom}
		}
		if *checkTo != "" {
			q.Dests = []string{*checkTo}
		}
		if *checkVia != "" {
			q.Transits = []string{*checkVia}
		}
		rep, err := v.Check(q)
		fatal(err)
		fmt.Printf("\nquery dst=%s from=%v to=%v via=%q:\n", *checkDst, q.Sources, q.Dests, *checkVia)
		if rep.OK() {
			fmt.Printf("  OK; reached: %v\n", rep.ReachedDests)
		}
		for _, vio := range rep.Violations {
			fmt.Printf("  %s: %s (src=%s node=%s dst=%s)\n", vio.Kind, vio.Detail, vio.Source, vio.Node, vio.ExampleDst)
		}
	}

	if *showRIBs {
		ribs, err := v.RIBs()
		fatal(err)
		names := make([]string, 0, len(ribs))
		for n := range ribs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("\n%s:\n", n)
			for _, r := range ribs[n] {
				fmt.Printf("  %s\n", r)
			}
		}
	}

	if *verbose {
		for name, d := range v.PhaseDurations() {
			fmt.Printf("phase %-18s %v\n", name, d.Round(time.Millisecond))
		}
		stats, err := v.Stats()
		fatal(err)
		for _, st := range stats {
			fmt.Printf("worker %d: %d nodes, peak %d bytes, %d route pulls, %d packets in\n",
				st.Worker, st.Nodes, st.PeakBytes, st.RoutePulls, st.PacketsIn)
		}
		if fs := v.FaultStats(); len(fs) > 0 {
			names := make([]string, 0, len(fs))
			for n := range fs {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("fault %-18s %d\n", n, fs[n])
			}
		}
	}

	if *showReport || *reportJSON != "" {
		rep := v.AttributionReport()
		if *showReport {
			fmt.Printf("\nattribution report (%d spans):\n%s", rep.SpanCount, rep.String())
		}
		if *reportJSON != "" {
			data, err := rep.JSON()
			fatal(err)
			if *reportJSON == "-" {
				fmt.Println(string(data))
			} else {
				fatal(os.WriteFile(*reportJSON, append(data, '\n'), 0o644))
				fmt.Printf("attribution report written to %s\n", *reportJSON)
			}
		}
	}

	if *traceOut != "" {
		v.HarvestSpans()
		f, err := os.Create(*traceOut)
		fatal(err)
		fatal(tracer.WriteChromeTrace(f))
		fatal(f.Close())
		fmt.Printf("trace written to %s\n", *traceOut)
	}

	if !report.OK() {
		os.Exit(1)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "s2:", err)
		os.Exit(1)
	}
}

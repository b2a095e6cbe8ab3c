// Command s2 verifies a directory of device configurations: it simulates
// the control plane across distributed workers, builds the data plane, and
// checks all-pair reachability plus loop- and blackhole-freedom.
//
// Usage:
//
//	s2 -configs DIR [-workers N] [-shards M] [-scheme metis|random|expert]
//	   [-workers-at host:port,host:port]  # remote workers via cmd/s2worker
//	   [-procs N] [-seed S] [-rpc-timeout D] [-retries N]
//	   [-heartbeat-interval D] [-recover]
//	   [-query '{"dst_prefix":"10.128.128.0/24","sources":["edge-0-0"]}']
//	   [-ribs] [-budget BYTES] [-spill DIR] [-v]
//	   [-trace out.json] [-obs-addr 127.0.0.1:9090]
//	   [-log-level warn] [-log-json]
//
// The verifier options (-workers through -recover) are defined once in
// s2.Options.RegisterFlags, and -query takes the same s2.Query JSON that
// s2serve's POST /v1/queries does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"s2"
	"s2/internal/obs"
)

func main() {
	var opts s2.Options
	opts.RegisterFlags(flag.CommandLine)
	newLogger := obs.LogFlags("warn")
	flag.Int64Var(&opts.MemoryBudgetBytes, "budget", 0, "modelled per-worker memory budget in bytes (0 = unlimited)")
	flag.StringVar(&opts.SpillDir, "spill", "", "directory for spilling shard results between rounds")
	flag.BoolVar(&opts.KeepRIBs, "ribs", false, "print every device's computed routes")
	flag.BoolVar(&opts.GCStress, "gc-stress", false, "collect the BDD engine at every safe point the table grew (CI smoke knob; results are byte-identical)")
	var (
		configs    = flag.String("configs", "", "directory of *.cfg device configurations (required)")
		queryJSON  = flag.String("query", "", "also answer one query: an s2.Query JSON object, as POST /v1/queries takes (e.g. {\"dst_prefix\":\"10.128.128.0/24\",\"transits\":[\"agg-1-0\"]})")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON file of the run (open in chrome://tracing or ui.perfetto.dev)")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics, /healthz, /progress, and /debug/pprof on this address")
		showReport = flag.Bool("report", false, "print the per-worker × per-stage attribution table after the run")
		reportJSON = flag.String("report-json", "", "write the attribution report as JSON to this file (- for stdout)")
		flightLog  = flag.String("flight-log", "", "write the controller's flight-recorder events to this file at exit")
		verbose    = flag.Bool("v", false, "print phase timings and per-worker stats")
	)
	flag.Parse()
	if *configs == "" {
		flag.Usage()
		os.Exit(2)
	}

	// A query is read before anything runs: a malformed one must not turn
	// into a silent all-pairs run. Each transit needs one waypoint bit.
	var query *s2.Query
	if *queryJSON != "" {
		query = new(s2.Query)
		if err := json.Unmarshal([]byte(*queryJSON), query); err != nil {
			fatal(fmt.Errorf("-query: %w", err))
		}
		opts.WaypointBits = len(query.Transits)
	}

	// Structured logs go to stderr: stdout is the report surface and is
	// diffed by the comparison harnesses.
	logger, err := newLogger()
	fatal(err)
	opts.Logger = logger

	net, err := s2.LoadDirectory(*configs)
	fatal(err)
	fmt.Printf("parsed %d devices from %s\n", net.Size(), *configs)

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

	if query != nil {
		rep, err := v.Check(*query)
		fatal(err)
		canon, err := json.Marshal(query)
		fatal(err)
		fmt.Printf("\nquery %s:\n", canon)
		if rep.OK() {
			fmt.Printf("  OK; reached: %v\n", rep.ReachedDests)
		}
		for _, vio := range rep.Violations {
			fmt.Printf("  %s: %s (src=%s node=%s dst=%s)\n", vio.Kind, vio.Detail, vio.Source, vio.Node, vio.ExampleDst)
		}
	}

	if opts.KeepRIBs {
		ribs, err := v.RIBs()
		fatal(err)
		for _, n := range sortedKeys(ribs) {
			fmt.Printf("\n%s:\n", n)
			for _, r := range ribs[n] {
				fmt.Printf("  %s\n", r)
			}
		}
	}

	if *verbose {
		phases := v.PhaseDurations()
		for _, name := range sortedKeys(phases) {
			fmt.Printf("phase %-18s %v\n", name, phases[name].Round(time.Millisecond))
		}
		stats, err := v.Stats()
		fatal(err)
		for _, st := range stats {
			fmt.Printf("worker %d: %d nodes, peak %d bytes, %d route pulls, %d packets in\n",
				st.Worker, st.Nodes, st.PeakBytes, st.RoutePulls, st.PacketsIn)
		}
		fs := v.FaultStats()
		for _, n := range sortedKeys(fs) {
			fmt.Printf("fault %-18s %d\n", n, fs[n])
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

// sortedKeys returns m's keys in increasing order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "s2:", err)
		os.Exit(1)
	}
}

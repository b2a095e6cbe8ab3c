// Command s2bench regenerates the paper's evaluation figures (§5,
// Figures 4–10) plus Figure 11, this implementation's multi-core
// sweep, and prints the measured series as tables.
//
// Usage:
//
//	s2bench                 # all figures at the default scale
//	s2bench -fig 5          # one figure
//	s2bench -quick          # small sizes (seconds instead of minutes)
//	s2bench -ks 4,6,8,10    # custom FatTree sweep
//	s2bench -procs 4        # per-worker goroutine pool for every S2 run
//	s2bench -json out.json  # machine-readable rows + telemetry snapshots
//	s2bench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Times are critical-path durations (the slowest worker per round); see
// EXPERIMENTS.md for how the laptop-scale substitution maps to the paper.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"s2/internal/experiments"
	"s2/internal/obs"
)

var figures = map[int]struct {
	desc string
	run  func(experiments.Config) ([]experiments.Row, error)
}{
	4:  {"real-DCN-like: Batfish / Batfish+shard / S2±shard", experiments.Figure4},
	5:  {"FatTree sweep: Batfish vs Bonsai vs S2×workers", experiments.Figure5},
	6:  {"scale-out: one FatTree across 1..N workers", experiments.Figure6},
	7:  {"partition schemes: random/expert/metis + extremes", experiments.Figure7},
	8:  {"prefix sharding on/off across FatTree sizes", experiments.Figure8},
	9:  {"shard-count sweep on one FatTree", experiments.Figure9},
	10: {"DPV: all-pair vs single-pair, Batfish vs S2", experiments.Figure10},
	11: {"multi-core: per-worker pool-size sweep", experiments.Figure11},
}

// printGCSummary prints a per-variant BDD GC pause digest for rows whose
// telemetry carries the collector's percentiles (runs with collections).
func printGCSummary(rows []experiments.Row) {
	any := false
	for _, r := range rows {
		t := r.Telemetry
		if t == nil || t["s2_bdd_gc_pause_p50_seconds"] == 0 && t["s2_bdd_gc_pause_p99_seconds"] == 0 {
			continue
		}
		if !any {
			fmt.Printf("%-8s %-14s %12s %12s %12s %12s\n",
				"", "gc", "pause-p50", "pause-p99", "relocated", "gc-runs")
			any = true
		}
		variant := r.Variant
		if variant == "" {
			variant = r.System
		}
		// Counters are per-worker labeled series in the snapshot; sum them.
		sum := func(prefix string) float64 {
			var s float64
			for k, v := range t {
				if strings.HasPrefix(k, prefix) {
					s += v
				}
			}
			return s
		}
		fmt.Printf("%-8s %-14s %12s %12s %12.0f %12.0f\n",
			"", variant,
			(time.Duration(t["s2_bdd_gc_pause_p50_seconds"]*1e9) * time.Nanosecond).Round(time.Microsecond).String(),
			(time.Duration(t["s2_bdd_gc_pause_p99_seconds"]*1e9) * time.Nanosecond).Round(time.Microsecond).String(),
			sum("s2_bdd_cache_relocated_total"), sum("s2_bdd_gc_runs_total"))
	}
}

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure number (4-11); 0 = all paper figures (4-10)")
		quick     = flag.Bool("quick", false, "small sizes for a fast smoke run")
		ks        = flag.String("ks", "", "comma-separated FatTree pod counts for sweeps (e.g. 4,6,8,10)")
		fixed     = flag.Int("k", 0, "FatTree size for single-size figures")
		shard     = flag.Int("shards", 0, "default prefix shard count")
		maxW      = flag.Int("maxworkers", 0, "largest S2 worker count")
		jsonOut   = flag.String("json", "", "also write rows (with per-run phase and RPC telemetry) as JSON to this file")
		procs     = flag.Int("procs", 0, "per-worker goroutine pool for the simulation phases (0 = all CPUs, 1 = sequential)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (after all figures) to this file")
		mutexProf = flag.String("mutexprofile", "", "write a mutex contention profile (after all figures) to this file")
		blockProf = flag.String("blockprofile", "", "write a goroutine blocking profile (after all figures) to this file")
	)
	newLogger := obs.LogFlags("off")
	flag.Parse()

	logger, err := newLogger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "s2bench:", err)
		os.Exit(2)
	}
	experiments.SetLogger(logger)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "s2bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "s2bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	// Contention profiling is sampled at runtime and must be switched on
	// before the workload runs; rate 1 records every event (these are
	// benchmark runs — accuracy beats overhead).
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(1)
	}

	cfg := experiments.Config{}
	if *quick {
		cfg = experiments.Quick()
	}
	if *ks != "" {
		cfg.SweepKs = nil
		for _, s := range strings.Split(*ks, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "s2bench: bad -ks:", err)
				os.Exit(2)
			}
			cfg.SweepKs = append(cfg.SweepKs, k)
		}
	}
	if *fixed > 0 {
		cfg.FixedK = *fixed
	}
	if *shard > 0 {
		cfg.Shards = *shard
	}
	if *maxW > 0 {
		cfg.MaxWorkers = *maxW
	}
	if *procs > 0 {
		cfg.Procs = *procs
	}
	cfg = cfg.Defaults()

	var nums []int
	if *fig != 0 {
		if _, ok := figures[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "s2bench: unknown figure %d (have 4-11)\n", *fig)
			os.Exit(2)
		}
		nums = []int{*fig}
	} else {
		nums = []int{4, 5, 6, 7, 8, 9, 10}
	}

	// figureResult is the -json schema: one entry per figure, each row
	// carrying its headline numbers plus the Telemetry snapshot (RPC
	// counts/latencies, convergence iterations, modelled memory) the
	// experiments runner records per S2 run.
	type figureResult struct {
		Figure     int
		Desc       string
		DurationMS int64
		Rows       []experiments.Row
	}
	var results []figureResult

	for _, n := range nums {
		f := figures[n]
		fmt.Printf("=== Figure %d: %s ===\n", n, f.desc)
		start := time.Now()
		rows, err := f.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "s2bench: figure %d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Print(experiments.Format(rows))
		printGCSummary(rows)
		elapsed := time.Since(start)
		fmt.Printf("(figure %d measured in %v)\n\n", n, elapsed.Round(time.Millisecond))
		results = append(results, figureResult{
			Figure: n, Desc: f.desc, DurationMS: elapsed.Milliseconds(), Rows: rows,
		})
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "s2bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "s2bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "s2bench:", err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "s2bench:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *memProf)
	}
	writeLookupProfile(*mutexProf, "mutex")
	writeLookupProfile(*blockProf, "block")
}

// writeLookupProfile dumps a named runtime/pprof profile ("mutex",
// "block") to path; no-op when path is empty.
func writeLookupProfile(path, name string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s2bench:", err)
		os.Exit(1)
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "s2bench:", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("wrote %s\n", path)
}

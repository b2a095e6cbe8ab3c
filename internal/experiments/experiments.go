// Package experiments regenerates every figure in the paper's evaluation
// (§5, Figures 4–10) at laptop scale. Each runner returns tabular rows that
// cmd/s2bench prints and bench_test.go records, and EXPERIMENTS.md archives
// paper-vs-measured.
//
// Scale substitution: the paper runs FatTree40–FatTree90 (2 000–10 125
// switches) on five 64-core 500 GB servers; here FatTree sizes and memory
// budgets shrink proportionally (see Config). Per-worker memory budgets are
// calibrated per figure from an uncapped reference run, reproducing the
// paper's fixed 100 GB logical-server limit and its OOM crossovers. Time
// series report the critical path — the per-round maximum across workers —
// because wall clock on a single-CPU host serializes what a cluster runs
// in parallel.
package experiments

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"time"

	"s2/internal/baseline"
	"s2/internal/config"
	"s2/internal/core"
	"s2/internal/metrics"
	"s2/internal/obs"
	"s2/internal/partition"
	"s2/internal/synth"
)

// Config scales the experiments. The zero value gets Defaults applied.
type Config struct {
	// SweepKs are the FatTree pod counts for size sweeps (Figures 5, 8,
	// 10). Default {4, 6, 8}; pass larger values for longer runs.
	SweepKs []int
	// FixedK is the FatTree used by single-size figures (6, 7, 9).
	// Default 6.
	FixedK int
	// Workers is the worker-count ladder for Figure 6 (default
	// {1, 2, 4, 8, 12, 16}).
	Workers []int
	// MaxWorkers is the largest S2 deployment in comparative figures
	// (default 16, matching the paper).
	MaxWorkers int
	// Shards is the default prefix-shard count (paper: 20).
	Shards int
	// ShardSweep is Figure 9's ladder (default {1,5,10,15,20,25,30,40}).
	ShardSweep []int
	// DCN sizes Figure 4's real-DCN substitute.
	DCN synth.DCNOptions
	// Seed fixes all randomized choices.
	Seed int64
	// Procs is the per-worker goroutine pool for every S2 run (0 = all
	// CPUs, 1 = sequential; the s2bench -procs flag).
	Procs int
	// ProcsSweep is Figure 11's pool-size ladder (default {1, 2, 4, 8}).
	ProcsSweep []int
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if len(c.SweepKs) == 0 {
		c.SweepKs = []int{4, 6, 8}
	}
	if c.FixedK == 0 {
		c.FixedK = 6
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8, 12, 16}
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 16
	}
	if c.Shards == 0 {
		c.Shards = 20
	}
	if len(c.ShardSweep) == 0 {
		c.ShardSweep = []int{1, 5, 10, 15, 20, 25, 30, 40}
	}
	if len(c.ProcsSweep) == 0 {
		c.ProcsSweep = []int{1, 2, 4, 8}
	}
	if c.DCN.Clusters == 0 {
		c.DCN = synth.DCNOptions{
			Clusters: 3, TORsPerCluster: 6, FabricWidth: 5, CoreWidth: 4,
			DeepClusters: true, WithAggregation: true, VLANsPerTOR: 6,
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Quick returns a configuration small enough for unit tests and smoke
// benches.
func Quick() Config {
	return Config{
		SweepKs:    []int{4, 6},
		FixedK:     4,
		Workers:    []int{1, 2, 4},
		MaxWorkers: 4,
		Shards:     4,
		ShardSweep: []int{1, 2, 4, 8},
		DCN: synth.DCNOptions{
			Clusters: 2, TORsPerCluster: 4, FabricWidth: 4, CoreWidth: 3,
			DeepClusters: true, WithAggregation: true, VLANsPerTOR: 8,
		},
		Seed:       1,
		ProcsSweep: []int{1, 2},
	}.Defaults()
}

// Row is one measured configuration (one point/bar of a figure).
type Row struct {
	Figure  string
	System  string // "batfish", "batfish+shard", "bonsai", "s2-4w", ...
	Network string // "FatTree6", "DCN", ...
	Variant string // extra dimension: scheme, shard count, query type

	Switches int
	Routes   int

	OK       bool
	OOM      bool
	TimedOut bool
	Err      string

	// Times are critical-path (simulated parallel) durations.
	CPTime    time.Duration
	DPCompute time.Duration
	DPForward time.Duration
	Total     time.Duration
	// WallTime is the real elapsed time of the whole run — the number the
	// multi-core speedup figures compare, since critical-path durations
	// already simulate cluster parallelism.
	WallTime time.Duration `json:",omitempty"`

	// PeakBytes is the highest per-worker modelled peak.
	PeakBytes int64

	// Telemetry is the run's metrics snapshot (RPC counts and latencies,
	// convergence iterations, routes exchanged, modelled memory) keyed by
	// Prometheus series name. S2 rows only; surfaced by s2bench -json.
	Telemetry map[string]float64 `json:",omitempty"`
}

// Status renders the row's outcome.
func (r Row) Status() string {
	switch {
	case r.OOM:
		return "OOM"
	case r.TimedOut:
		return "TIMEOUT"
	case !r.OK:
		return "ERR"
	}
	return "ok"
}

// Format renders rows as an aligned table.
func Format(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-16s %-12s %-14s %9s %9s %11s %11s %11s %11s %10s %s\n",
		"figure", "system", "network", "variant", "switches", "routes",
		"cp", "dp-compute", "dp-forward", "total", "peak", "status")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-16s %-12s %-14s %9d %9d %11s %11s %11s %11s %10s %s\n",
			r.Figure, r.System, r.Network, r.Variant, r.Switches, r.Routes,
			fmtDur(r.CPTime), fmtDur(r.DPCompute), fmtDur(r.DPForward), fmtDur(r.Total),
			metrics.FormatBytes(r.PeakBytes), r.Status())
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}

// fatTreeSnap synthesizes and parses a FatTree, returning texts too.
func fatTreeSnap(k int) (*config.Snapshot, map[string]string, error) {
	texts, err := synth.FatTree(synth.FatTreeOptions{K: k})
	if err != nil {
		return nil, nil, err
	}
	snap, err := parse(texts)
	return snap, texts, err
}

func dcnSnap(opts synth.DCNOptions) (*config.Snapshot, map[string]string, error) {
	texts, err := synth.DCN(opts)
	if err != nil {
		return nil, nil, err
	}
	snap, err := parse(texts)
	return snap, texts, err
}

func parse(texts map[string]string) (*config.Snapshot, error) {
	keyed := make(map[string]string, len(texts))
	for name, text := range texts {
		keyed[name+".cfg"] = text
	}
	return config.ParseTexts(keyed)
}

// logger receives structured logs from every controller the experiment
// runners build (nil = off). Process-wide because the runners construct
// controllers at many sites; the s2bench -log-level flag sets it once.
var logger *slog.Logger

// SetLogger routes controller/worker structured logs from all experiment
// runs to l. Call before running figures; nil disables.
func SetLogger(l *slog.Logger) { logger = l }

// s2Run executes the full S2 pipeline and measures it.
type s2Params struct {
	workers int
	shards  int
	scheme  partition.Scheme
	budget  int64
	loadOf  func(string) int64
	seed    int64
	procs   int // per-worker pool size (0 = all CPUs)
}

// resolvedProcs mirrors the controller's Parallelism default so telemetry
// records the pool size actually used.
func (p s2Params) resolvedProcs() int {
	if p.procs > 0 {
		return p.procs
	}
	return runtime.NumCPU()
}

// recordPoolTelemetry stamps the run's pool size into the telemetry map
// next to the metrics snapshot (s2bench -json rows).
func recordPoolTelemetry(t map[string]float64, p s2Params) {
	t["s2_pool_procs"] = float64(p.resolvedProcs())
}

// recordGCTelemetry stamps fleet-wide GC pause percentiles (aggregated
// over every worker's "total" pause series) into the telemetry map.
func recordGCTelemetry(t map[string]float64, reg *obs.Registry) {
	t["s2_bdd_gc_pause_p50_seconds"] = reg.HistogramQuantile(core.MetricBDDGCPause, 0.50, "phase", "total")
	t["s2_bdd_gc_pause_p99_seconds"] = reg.HistogramQuantile(core.MetricBDDGCPause, 0.99, "phase", "total")
	t["s2_bdd_gc_mark_p99_seconds"] = reg.HistogramQuantile(core.MetricBDDGCPause, 0.99, "phase", "mark")
}

func runS2(texts map[string]string, p s2Params) (row Row) {
	row = Row{System: fmt.Sprintf("s2-%dw", p.workers)}
	snap, err := parse(texts)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Switches = len(snap.Devices)
	reg := obs.NewRegistry()
	ctrl, err := core.NewController(snap, texts, core.Options{
		Workers:      p.workers,
		Scheme:       p.scheme,
		Shards:       p.shards,
		Seed:         p.seed,
		MemoryBudget: p.budget,
		LoadOf:       p.loadOf,
		Sequential:   true,
		Metrics:      reg,
		Logger:       logger,

		Parallelism: p.procs,
	})
	if err != nil {
		row.Err = err.Error()
		return row
	}
	// A registry starts the vitals sampler, which holds the controller and
	// its in-process workers until Close; deferred first, Close runs after
	// the telemetry snapshot below.
	defer ctrl.Close()
	start := time.Now()
	defer func() {
		row.WallTime = time.Since(start)
		row.Telemetry = reg.Snapshot()
		recordPoolTelemetry(row.Telemetry, p)
		recordGCTelemetry(row.Telemetry, reg)
	}()
	if err := ctrl.RunControlPlane(); err != nil {
		return finishErr(row, err)
	}
	if _, err := ctrl.ComputeDataPlane(); err != nil {
		return finishErr(row, err)
	}
	res, err := ctrl.CheckAllPairs()
	if err != nil {
		return finishErr(row, err)
	}
	row.OK = len(res.Unreached) == 0 && len(res.Violations) == 0
	if !row.OK {
		row.Err = fmt.Sprintf("unreached=%d violations=%d", len(res.Unreached), len(res.Violations))
	}
	row.setStageTimes(ctrl.Stages(), criticalPath)
	stats, err := ctrl.Stats()
	if err == nil {
		row.PeakBytes = core.MaxPeakBytes(stats)
	}
	return row
}

// runS2CP runs only the control plane (for CP-focused figures).
func runS2CP(texts map[string]string, p s2Params) (row Row) {
	row = Row{System: fmt.Sprintf("s2-%dw", p.workers)}
	snap, err := parse(texts)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Switches = len(snap.Devices)
	reg := obs.NewRegistry()
	ctrl, err := core.NewController(snap, texts, core.Options{
		Workers:      p.workers,
		Scheme:       p.scheme,
		Shards:       p.shards,
		Seed:         p.seed,
		MemoryBudget: p.budget,
		LoadOf:       p.loadOf,
		KeepRIBs:     true,
		Sequential:   true,
		Metrics:      reg,
		Logger:       logger,

		Parallelism: p.procs,
	})
	if err != nil {
		row.Err = err.Error()
		return row
	}
	// A registry starts the vitals sampler, which holds the controller and
	// its in-process workers until Close; deferred first, Close runs after
	// the telemetry snapshot below.
	defer ctrl.Close()
	start := time.Now()
	defer func() {
		row.WallTime = time.Since(start)
		row.Telemetry = reg.Snapshot()
		recordPoolTelemetry(row.Telemetry, p)
		recordGCTelemetry(row.Telemetry, reg)
	}()
	if err := ctrl.RunControlPlane(); err != nil {
		return finishErr(row, err)
	}
	row.OK = true
	ribs, err := ctrl.CollectRIBs()
	if err == nil {
		for _, rib := range ribs {
			row.Routes += rib.RouteCount()
		}
	}
	row.setStageTimes(ctrl.Stages(), criticalPath)
	stats, err := ctrl.Stats()
	if err == nil {
		row.PeakBytes = core.MaxPeakBytes(stats)
	}
	return row
}

// S2 rows report the critical path (a host with fewer cores than workers
// serializes them); the single-process baseline reports the wall time.
func criticalPath(st metrics.StageTime) time.Duration { return st.Critical }
func wallTime(st metrics.StageTime) time.Duration     { return st.Wall }

// setStageTimes fills the row's times from a stage record: CP time is
// cp-ospf plus cp-bgp, and Total sums every stage.
func (r *Row) setStageTimes(stages map[string]metrics.StageTime, of func(metrics.StageTime) time.Duration) {
	r.CPTime = of(stages[metrics.StageCPOSPF]) + of(stages[metrics.StageCPBGP])
	r.DPCompute = of(stages[metrics.StageDPCompute])
	r.DPForward = of(stages[metrics.StageDPForward])
	r.Total = 0
	for _, st := range stages {
		r.Total += of(st)
	}
}

func finishErr(row Row, err error) Row {
	row.Err = err.Error()
	if errors.Is(err, metrics.ErrOutOfMemory) {
		row.OOM = true
	}
	if strings.Contains(err.Error(), "did not converge") || strings.Contains(err.Error(), "timed out") {
		row.TimedOut = true
	}
	return row
}

// runBatfish executes the centralized baseline.
func runBatfish(snap *config.Snapshot, shards int, budget int64, seed int64) Row {
	system := "batfish"
	if shards > 1 {
		system = "batfish+shard"
	}
	row := Row{System: system, Switches: len(snap.Devices)}
	bf, err := baseline.NewBatfish(snap, baseline.BatfishOptions{
		Shards: shards, Seed: seed, MemoryBudget: budget,
	})
	if err != nil {
		row.Err = err.Error()
		return row
	}
	if err := bf.RunControlPlane(); err != nil {
		return finishErr(row, err)
	}
	if _, err := bf.ComputeDataPlane(); err != nil {
		return finishErr(row, err)
	}
	res, err := bf.CheckAllPairs()
	if err != nil {
		return finishErr(row, err)
	}
	row.OK = len(res.Unreached) == 0 && len(res.Violations) == 0
	row.setStageTimes(bf.Stages(), wallTime)
	row.PeakBytes = bf.PeakBytes()
	return row
}

// batfishPeak measures the uncapped modelled peak for budget calibration.
func batfishPeak(snap *config.Snapshot) (int64, error) {
	bf, err := baseline.NewBatfish(snap, baseline.BatfishOptions{})
	if err != nil {
		return 0, err
	}
	if err := bf.RunControlPlane(); err != nil {
		return 0, err
	}
	if _, err := bf.ComputeDataPlane(); err != nil {
		return 0, err
	}
	if _, err := bf.CheckAllPairs(); err != nil {
		return 0, err
	}
	return bf.PeakBytes(), nil
}

// sortRows orders rows for stable output.
func sortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Network != rows[j].Network {
			return rows[i].Network < rows[j].Network
		}
		if rows[i].System != rows[j].System {
			return rows[i].System < rows[j].System
		}
		return rows[i].Variant < rows[j].Variant
	})
}

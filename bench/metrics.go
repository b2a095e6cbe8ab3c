package main

import (
	"runtime"
	"syscall"
	"time"

	"s2"
)

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before it counts as a
// regression; per-layer metrics have none. BENCHMARK.json repeats these
// tables for the driver and bench_test.go keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// Every workload reports every end-to-end metric; what a "verdict" is
// depends on the workload (a cold pipeline's verdict, a delta's standing
// intents answered, a query's answer) and README.md says which. On the box
// the benchmark was defined on, ten-run medians of every timing drift by up
// to 16 % within the hour and spreads reach 11 %, hence bounds no tighter.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdict_p50_ms", "ms", "lower", 0.20},
	{"verdict_tail_ms", "ms", "lower", 0.25},
	{"verdicts_per_s", "1/s", "higher", 0.20},
	{"resident_heap_mb", "MB", "lower", 0.05},
}

// Per-layer metrics come from the traced run only. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// config, topology, partition: direct calls on the workload's texts.
	{Name: "parse_s", Unit: "s", Better: "lower"},
	{Name: "topo_build_s", Unit: "s", Better: "lower"},
	{Name: "partition_s", Unit: "s", Better: "lower"},
	{Name: "partition_edge_cut", Unit: "count", Better: "lower"},
	// bgp/ospf/policy/shard through core.
	{Name: "cp_s", Unit: "s", Better: "lower"},
	{Name: "route_pulls", Unit: "count", Better: "lower"},
	{Name: "routes", Unit: "count", Better: "lower"},
	// dataplane and bdd.
	{Name: "dp_compute_s", Unit: "s", Better: "lower"},
	{Name: "dp_forward_s", Unit: "s", Better: "lower"},
	{Name: "packets_in", Unit: "count", Better: "lower"},
	{Name: "bdd_kernel_ops_per_s", Unit: "1/s", Better: "higher"},
	// sidecar.
	{Name: "rpc_calls", Unit: "count", Better: "lower"},
	{Name: "rpc_bytes", Unit: "count", Better: "lower"},
	{Name: "tcp_tax_s", Unit: "s", Better: "lower"},
	// core delta planner.
	{Name: "delta_apply_noop_s", Unit: "s", Better: "lower"},
	{Name: "delta_apply_dp_s", Unit: "s", Better: "lower"},
	{Name: "delta_apply_orig_s", Unit: "s", Better: "lower"},
	{Name: "delta_apply_policy_s", Unit: "s", Better: "lower"},
	{Name: "delta_dp_compute_share", Unit: "ratio", Better: "lower"},
	{Name: "dirty_shard_ratio", Unit: "ratio", Better: "lower"},
	// core query plane.
	{Name: "query_pass_s", Unit: "s", Better: "lower"},
	{Name: "cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mean_batch_size", Unit: "count", Better: "higher"},
	{Name: "passes", Unit: "count", Better: "lower"},
	// serve.
	{Name: "serve_self_ms", Unit: "ms", Better: "lower"},
	{Name: "epoch_floor_ms", Unit: "ms", Better: "lower"},
	// load generator.
	{Name: "stalled_share", Unit: "ratio", Better: "lower"},
	{Name: "generator_lateness_ms", Unit: "ms", Better: "lower"},
	// process.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "traced_verdict_p50_ms", Unit: "ms", Better: "lower"},
}

// outcome is what one run of one workload produced.
type outcome struct {
	attempted, failed int
	firstFailure      string
	e2e, layer        map[string]float64
	notes             []string // sizes and sample counts for the header
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts n failed operations and keeps the first reason for the
// human-readable output.
func (o *outcome) fail(n int, reason string) {
	o.failed += n
	if o.firstFailure == "" {
		o.firstFailure = reason
	}
}

// verdicts fills the verdict metrics from the per-operation seconds of the
// correct operations, the workload's tail percentile, and the time the
// operations took together.
func (o *outcome) verdicts(secs []float64, tail float64, busy time.Duration) {
	o.e2e["verdict_p50_ms"] = median(secs) * 1e3
	o.e2e["verdict_tail_ms"] = percentile(secs, tail) * 1e3
	o.e2e["verdicts_per_s"] = float64(len(secs)) / busy.Seconds()
}

// sample is one correct operation of a load generator: when it counts
// (completion in a closed loop, due time in an open one) since the window
// opened, and how long it took.
type sample struct{ at, took time.Duration }

// verdictsBySlice cuts the window into n slices and fills the verdict
// metrics with the median over slices of each slice's p50, tail percentile
// and completions per second. A burst of interference (a collection, a
// neighbour on the box) spoils the slices it hits and leaves the median
// alone, which a percentile over the whole window does not. It returns the
// per-slice tails for the header.
func (o *outcome) verdictsBySlice(samples []sample, slice time.Duration, n int, tail float64) []float64 {
	bySlice := make([][]float64, n)
	for _, s := range samples {
		if i := int(s.at / slice); i >= 0 && i < n {
			bySlice[i] = append(bySlice[i], s.took.Seconds())
		}
	}
	var p50s, tails, rates []float64
	for _, secs := range bySlice {
		if len(secs) == 0 {
			continue
		}
		p50s = append(p50s, median(secs))
		tails = append(tails, percentile(secs, tail))
		rates = append(rates, float64(len(secs))/slice.Seconds())
	}
	o.e2e["verdict_p50_ms"] = median(p50s) * 1e3
	o.e2e["verdict_tail_ms"] = median(tails) * 1e3
	o.e2e["verdicts_per_s"] = median(rates)
	return tails
}

// heapMB forces a collection and returns the Go heap still in use.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// processStats fills the informational process metrics.
func processStats(layer map[string]float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		layer["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layer["gc_cpu_share"] = ms.GCCPUFraction
}

// workStats sums the workers' control- and data-plane work counters.
func workStats(v *s2.Verifier, layer map[string]float64) error {
	stats, err := v.Stats()
	if err != nil {
		return err
	}
	for _, s := range stats {
		layer["route_pulls"] += float64(s.RoutePulls)
		layer["packets_in"] += float64(s.PacketsIn)
	}
	return nil
}

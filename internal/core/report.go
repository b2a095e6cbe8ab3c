// Attribution report: a per-worker × per-stage accounting table. The ctrl
// row is the controller's stage clock, so it is filled with or without a
// tracer; the worker rows' stage, RPC and GC columns come from the merged
// trace (harvested worker spans and the controller's client RPC spans), and
// their resource columns from worker stats and per-connection transport
// counters. It answers "where did the run's time go, and on which worker"
// without opening the Chrome trace: wall time per stage, RPC count and
// time, transport bytes, BDD engine size, and GC pauses.

package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"s2/internal/metrics"
	"s2/internal/sidecar"
)

// reportStages fixes the column order of the per-stage table: the pipeline
// stages, then the workers' BDD collections.
var reportStages = append(append([]string(nil), metrics.Stages...), "gc")

// workerSpanStage maps a worker span name to the report column its time
// counts toward. Container spans ("shard" wraps the per-phase spans and
// would double-count) and bookkeeping spans are absent.
var workerSpanStage = map[string]string{
	"setup":       metrics.StageSetup,
	"gather-ospf": metrics.StageCPOSPF, "apply-ospf": metrics.StageCPOSPF,
	"gather-bgp": metrics.StageCPBGP, "apply-bgp": metrics.StageCPBGP, "end-shard": metrics.StageCPBGP,
	"compute-dp":  metrics.StageDPCompute,
	"begin-query": metrics.StageDPForward, "dp-round": metrics.StageDPForward, "finish-query": metrics.StageDPForward,
	"gc": "gc",
}

// StageTime accumulates wall time over one stage's runs (the ctrl row) or
// over the spans attributed to it (a worker row).
type StageTime struct {
	Spans  int   `json:"spans"`
	Micros int64 `json:"micros"`
}

// WorkerAttribution is one worker's row of the report.
type WorkerAttribution struct {
	Worker       int                  `json:"worker"`
	Stages       map[string]StageTime `json:"stages"`
	RPCCount     int64                `json:"rpc_count"`
	RPCMicros    int64                `json:"rpc_micros"`
	BytesRead    int64                `json:"bytes_read,omitempty"`
	BytesWritten int64                `json:"bytes_written,omitempty"`
	BDDNodes     int                  `json:"bdd_nodes"`
	PeakBytes    int64                `json:"peak_bytes"`
	GCPauses     int                  `json:"gc_pauses"`
	GCMicros     int64                `json:"gc_micros"`
	// GC phase split and cache-relocation outcome, summed over the worker's
	// collections (from the gc spans' mark_us/sweep_us/relocate_us and
	// relocated attributes; zero when tracing is off).
	GCMarkMicros     int64 `json:"gc_mark_micros,omitempty"`
	GCSweepMicros    int64 `json:"gc_sweep_micros,omitempty"`
	GCRelocateMicros int64 `json:"gc_relocate_micros,omitempty"`
	GCRelocated      int64 `json:"gc_cache_relocated,omitempty"`
	// StragglerScore is the per-worker progress-skew EWMA (fleet.go);
	// zero when the worker kept pace or no metrics registry was wired.
	StragglerScore float64 `json:"straggler_score,omitempty"`
}

// argInt64 parses an integer span attribute, tolerating absence.
func argInt64(args map[string]string, key string) int64 {
	if args == nil {
		return 0
	}
	v, err := strconv.ParseInt(args[key], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// AttributionReport is the whole table plus the controller's own stage
// timeline, read from its stage clock. Stages lists the column order for
// renderers.
type AttributionReport struct {
	Stages     []string             `json:"stages"`
	Controller map[string]StageTime `json:"controller"`
	Workers    []WorkerAttribution  `json:"workers"`
	// SpanCount is how many trace spans the report was distilled from; zero
	// means tracing was off, and only the ctrl row and the stats-derived
	// columns are filled.
	SpanCount int `json:"span_count"`
}

// AttributionReport harvests any outstanding remote spans and distills the
// merged trace into the per-worker accounting table. Works in degraded form
// without a tracer (worker stage columns empty; the ctrl row and the stats
// columns still filled).
func (c *Controller) AttributionReport() *AttributionReport {
	c.harvestAll()

	rep := &AttributionReport{
		Stages:     append([]string(nil), reportStages...),
		Controller: map[string]StageTime{},
	}
	for name, st := range c.clock.Snapshot() {
		rep.Controller[name] = StageTime{Spans: st.Runs, Micros: st.Wall.Microseconds()}
	}

	c.wmu.RLock()
	n := len(c.workers)
	clients := append([]*sidecar.RemoteWorker(nil), c.clients...)
	c.wmu.RUnlock()

	rows := make(map[int]*WorkerAttribution, n)
	row := func(id int) *WorkerAttribution {
		r := rows[id]
		if r == nil {
			r = &WorkerAttribution{Worker: id, Stages: map[string]StageTime{}}
			rows[id] = r
		}
		return r
	}
	for i := 0; i < n; i++ {
		row(i) // every live worker gets a row even with zero spans
	}

	if c.tracer != nil {
		events := c.tracer.Events()
		rep.SpanCount = len(events)
		for _, ev := range events {
			if ev.PID >= 1 {
				// Worker-side span: pid is worker id + 1 (pid 0 is the
				// controller's own process lane).
				r := row(ev.PID - 1)
				if ev.Name == "gc" {
					r.GCPauses++
					r.GCMicros += ev.Dur
					r.GCMarkMicros += argInt64(ev.Args, "mark_us")
					r.GCSweepMicros += argInt64(ev.Args, "sweep_us")
					r.GCRelocateMicros += argInt64(ev.Args, "relocate_us")
					r.GCRelocated += argInt64(ev.Args, "relocated")
				}
				if stage, ok := workerSpanStage[ev.Name]; ok {
					st := r.Stages[stage]
					st.Spans++
					st.Micros += ev.Dur
					r.Stages[stage] = st
				}
				continue
			}
			// Controller-side client RPC spans attribute to the target
			// worker.
			if strings.HasPrefix(ev.Name, "rpc:") {
				if id, err := strconv.Atoi(ev.Args["worker"]); err == nil {
					r := row(id)
					r.RPCCount++
					r.RPCMicros += ev.Dur
				}
			}
		}
	}

	// Resource columns from the workers' own accounting; best effort — a
	// dead worker keeps whatever the trace attributed to it.
	if stats, err := c.Stats(); err == nil {
		for _, st := range stats {
			r := row(st.WorkerID)
			r.BDDNodes = st.BDDNodes
			r.PeakBytes = st.PeakBytes
		}
	}
	for i, cl := range clients {
		if cl != nil && i < n {
			r := row(i)
			r.BytesRead = cl.BytesRead()
			r.BytesWritten = cl.BytesWritten()
		}
	}
	for id, score := range c.StragglerScores() {
		if id < n {
			row(id).StragglerScore = score
		}
	}

	ids := make([]int, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rep.Workers = append(rep.Workers, *rows[id])
	}
	return rep
}

// JSON renders the report as indented JSON.
func (r *AttributionReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

func fmtMicros(us int64) string {
	switch {
	case us == 0:
		return "-"
	case us < 10_000:
		return fmt.Sprintf("%.2fms", float64(us)/1000)
	case us < 10_000_000:
		return fmt.Sprintf("%.1fms", float64(us)/1000)
	default:
		return fmt.Sprintf("%.1fs", float64(us)/1_000_000)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b == 0:
		return "-"
	case b < 10*1024:
		return fmt.Sprintf("%dB", b)
	case b < 10*1024*1024:
		return fmt.Sprintf("%.1fKiB", float64(b)/1024)
	default:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1024*1024))
	}
}

// String renders the per-worker × per-stage table as aligned text. Stage
// columns show total wall time attributed to that worker in that stage.
func (r *AttributionReport) String() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)

	header := []string{"worker"}
	header = append(header, r.Stages...)
	header = append(header, "rpcs", "rpc-time", "rx", "tx", "bdd-nodes", "gc-pauses", "gc-mark/sweep/reloc", "gc-cache-kept", "straggler")
	fmt.Fprintln(tw, strings.Join(header, "\t"))

	writeRow := func(name string, stages map[string]StageTime, w *WorkerAttribution) {
		cols := []string{name}
		for _, s := range r.Stages {
			cols = append(cols, fmtMicros(stages[s].Micros))
		}
		if w != nil {
			gc := "-"
			phases := "-"
			kept := "-"
			if w.GCPauses > 0 {
				gc = fmt.Sprintf("%d (%s)", w.GCPauses, fmtMicros(w.GCMicros))
				phases = fmt.Sprintf("%s/%s/%s",
					fmtMicros(w.GCMarkMicros), fmtMicros(w.GCSweepMicros), fmtMicros(w.GCRelocateMicros))
				kept = strconv.FormatInt(w.GCRelocated, 10)
			}
			straggler := "-"
			if w.StragglerScore > 0 {
				straggler = fmt.Sprintf("%.2f", w.StragglerScore)
			}
			cols = append(cols,
				strconv.FormatInt(w.RPCCount, 10),
				fmtMicros(w.RPCMicros),
				fmtBytes(w.BytesRead),
				fmtBytes(w.BytesWritten),
				strconv.Itoa(w.BDDNodes),
				gc, phases, kept, straggler)
		} else {
			cols = append(cols, "-", "-", "-", "-", "-", "-", "-", "-", "-")
		}
		fmt.Fprintln(tw, strings.Join(cols, "\t"))
	}

	writeRow("ctrl", r.Controller, nil)
	for i := range r.Workers {
		w := &r.Workers[i]
		writeRow(fmt.Sprintf("w%d", w.Worker), w.Stages, w)
	}
	tw.Flush()
	return sb.String()
}

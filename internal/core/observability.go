// This file is the observability wiring for the controller and in-process
// workers: stage and shard spans in a shared obs.Tracer, RPC telemetry on
// every worker transport, per-iteration convergence progress streamed from
// ApplyReply, and Prometheus-style metrics bridging the modelled-memory
// trackers. All of it is nil-safe: with Options.Tracer and Options.Metrics
// unset, every hook below degrades to a no-op.

package core

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"s2/internal/bdd"
	"s2/internal/metrics"
	"s2/internal/obs"
	"s2/internal/sidecar"
)

// Metric names exported by the core layer; see README "Observability".
const (
	MetricRoutesExchanged = "s2_routes_exchanged_total"
	MetricCPIterations    = "s2_cp_iterations_total"
	MetricCPRoutesSettled = "s2_cp_routes_settled"
	MetricCPChangedNodes  = "s2_cp_changed_nodes"
	MetricBDDNodes        = "s2_bdd_nodes"
	MetricBDDGCRuns       = "s2_bdd_gc_runs_total"
	MetricBDDGCPause      = "s2_bdd_gc_pause_seconds"
	MetricBDDGCFreed      = "s2_bdd_gc_freed_total"
	MetricBDDCacheReloc   = "s2_bdd_cache_relocated_total"
	MetricBDDCacheDropped = "s2_bdd_cache_dropped_total"
	MetricSpillBytes      = "s2_spill_bytes_total"
	MetricModelMemory     = "s2_model_memory_bytes"
	MetricFaultEvents     = "s2_fault_events_total"
	MetricWorkersAlive    = "s2_workers_alive"
	MetricWireBytes       = "s2_wire_packet_bytes_total"
	MetricWireDeduped     = "s2_wire_nodes_deduped_total"
	MetricEpoch           = "s2_epoch"
	MetricEpochAge        = "s2_epoch_age_seconds"
	MetricDeltas          = "s2_deltas_total"
	MetricDeltaPlans      = "s2_delta_plan_total"
	MetricDeltaDirty      = "s2_delta_dirty_shards"
	MetricDeltaTotal      = "s2_delta_total_shards"
	MetricDPRecompiled    = "s2_dp_nodes_recompiled_total"
	MetricDPPatched       = "s2_dp_prefixes_patched_total"

	// Query-plane metrics (see queryplane.go).
	MetricQueryCacheHits     = "s2_query_cache_hits_total"
	MetricQueryPasses        = "s2_query_passes_total"
	MetricQueryBatchSize     = "s2_query_batch_size"
	MetricQuerySlicedWorkers = "s2_query_sliced_workers"

	// Fleet health metrics (see fleet.go).
	MetricStragglerScore   = "s2_straggler_score"
	MetricRoundSkew        = "s2_round_skew_seconds"
	MetricWorkerShard      = "s2_worker_shard"
	MetricWorkerRound      = "s2_worker_round"
	MetricWorkerQueueLen   = "s2_worker_queue_len"
	MetricWorkerRSS        = "s2_worker_rss_bytes"
	MetricWorkerHeap       = "s2_worker_heap_bytes"
	MetricWorkerGoroutines = "s2_worker_goroutines"
	MetricWorkerGCPauseP99 = "s2_worker_gc_pause_p99_seconds"
)

// faultEventKeys are the metrics.FaultCounters keys bridged to
// s2_fault_events_total. FaultCounters has no key enumeration that is safe
// to call at scrape time without allocating, so the bridge names the known
// event vocabulary explicitly.
var faultEventKeys = []string{
	"rpc.retries", "rpc.timeouts", "rpc.failures",
	"heartbeat.misses", "heartbeat.deaths", "worker.deaths", "recoveries",
}

// Progress is the controller's live run view: which stage is executing and
// how far the current convergence loop has come. It backs the /progress
// endpoint of cmd/s2 and is rebuilt from the per-iteration ApplyReply
// counts the workers stream back.
type Progress struct {
	// Stage is the currently executing stage (one of metrics.Stages),
	// empty before Setup.
	Stage string `json:"stage"`
	// Shard is the prefix shard the control plane is converging (cp-bgp).
	Shard int `json:"shard"`
	// Round is the current convergence iteration within the stage/shard.
	Round int `json:"round"`
	// RoutesSettled is the route count installed across all workers after
	// the last Apply iteration.
	RoutesSettled int `json:"routes_settled"`
	// ChangedNodes is how many nodes changed state in the last iteration;
	// it reaches 0 exactly when the loop converges.
	ChangedNodes int `json:"changed_nodes"`
	CPRounds     int `json:"cp_rounds"`
	DPRounds     int `json:"dp_rounds"`
	Recoveries   int `json:"recoveries"`
	WorkersAlive int `json:"workers_alive"`
}

// Progress returns a snapshot of the live run view. Safe to call from any
// goroutine (the -obs-addr HTTP handler calls it during a run).
func (c *Controller) Progress() Progress {
	c.pmu.Lock()
	p := c.prog
	c.pmu.Unlock()
	c.wmu.RLock()
	p.WorkersAlive = len(c.workers)
	c.wmu.RUnlock()
	p.CPRounds = c.cpRounds
	p.DPRounds = c.dpRounds
	p.Recoveries = c.recoveries
	return p
}

// initObs wires the controller's observability surface from Options: the
// shared tracer/registry, the per-worker client RPC hooks, and the
// scrape-time bridges (fault events, workers alive, client transport bytes).
func (c *Controller) initObs() {
	c.tracer = c.opts.Tracer
	c.reg = c.opts.Metrics
	c.log = c.flight.Logger(c.opts.Logger)
	var parent func() *obs.Span
	if c.tracer != nil {
		parent = c.curStageSpan
	}
	if c.reg != nil || parent != nil {
		reg := c.reg
		c.clientHook = func(id int) sidecar.TraceHook {
			return sidecar.TraceHook(obs.RPCInstrument(reg, "client", parent, obs.Int("worker", id)))
		}
	}
	if c.reg == nil {
		return
	}
	events := c.reg.Counter(MetricFaultEvents,
		"Fault-tolerance events (retries, timeouts, deaths, recoveries) by kind.",
		"event")
	for _, key := range faultEventKeys {
		key := key
		events.SetFunc(func() float64 { return float64(c.faults.Get(key)) }, key)
	}
	c.reg.Gauge(MetricWorkersAlive, "Workers currently in the controller's directory.").
		SetFunc(func() float64 {
			c.wmu.RLock()
			defer c.wmu.RUnlock()
			return float64(len(c.workers))
		})
	c.reg.Gauge(MetricEpochAge, "Seconds since the verified-state epoch last advanced.").
		SetFunc(func() float64 {
			at := c.epochAt.Load()
			if at == 0 {
				return 0
			}
			return time.Since(time.Unix(0, at)).Seconds()
		})
	bytes := c.reg.Counter(obs.MetricRPCBytes,
		"Transport bytes moved by sidecar RPC, by role and direction.",
		"role", "dir")
	bytes.SetFunc(func() float64 { return float64(c.clientBytes(false)) }, "client", "in")
	bytes.SetFunc(func() float64 { return float64(c.clientBytes(true)) }, "client", "out")
	obs.RegisterProcessVitals(c.reg)
}

// clientBytes sums transport bytes across the live remote clients.
func (c *Controller) clientBytes(written bool) int64 {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	var total int64
	for _, cl := range c.clients {
		if cl == nil {
			continue
		}
		if written {
			total += cl.BytesWritten()
		} else {
			total += cl.BytesRead()
		}
	}
	return total
}

// curStageSpan is the parent provider for client RPC spans: RPCs nest under
// whatever stage/shard/round span the orchestrator holds open when the call
// is issued.
func (c *Controller) curStageSpan() *obs.Span {
	s, _ := c.curSpan.Load().(*obs.Span)
	return s
}

// startSpan opens a span under the current one (or a root span), makes it
// current, and returns the closure that ends it and restores its parent.
// The orchestrators are sequential, so a plain save-and-restore is enough;
// the atomic only protects the concurrent reads from RPC hooks.
func (c *Controller) startSpan(name string, attrs ...obs.Attr) func() {
	if c.tracer == nil {
		return func() {}
	}
	parent := c.curStageSpan()
	var s *obs.Span
	if parent != nil {
		s = parent.Child(name, attrs...)
	} else {
		s = c.tracer.Start(name, attrs...)
	}
	c.curSpan.Store(s)
	return func() {
		s.End()
		c.curSpan.Store(parent)
	}
}

// stage opens a stage span named "stage:<name>", publishes the stage to the
// progress view, runs fn as one run of the stage on the stage clock, and
// closes the span.
func (c *Controller) stage(name string, fn func() error) error {
	end := c.startSpan("stage:" + name)
	c.log.LogAttrs(context.Background(), slog.LevelDebug, "stage enter", obs.Kind("stage"), slog.String("stage", name))
	c.pmu.Lock()
	c.prog.Stage = name
	c.pmu.Unlock()
	start := time.Now()
	err := c.clock.Time(name, fn)
	end()
	if err != nil {
		c.log.LogAttrs(context.Background(), slog.LevelWarn, "stage failed", obs.Kind("stage"),
			slog.String("stage", name), slog.Duration("took", time.Since(start)), slog.Any("error", err))
	} else {
		c.log.LogAttrs(context.Background(), slog.LevelDebug, "stage leave", obs.Kind("stage"),
			slog.String("stage", name), slog.Duration("took", time.Since(start)))
	}
	return err
}

// applyRound runs one Apply iteration on every worker, aggregates the
// per-worker ApplyReply progress, streams it to the progress view, and
// records the iteration metrics.
func (c *Controller) applyRound(protocol string, shardIdx, round int,
	apply func(w sidecar.WorkerAPI) (sidecar.ApplyReply, error)) (bool, error) {
	var mu sync.Mutex
	var agg sidecar.ApplyReply
	changed, err := c.eachRound(nil, func(_ int, w sidecar.WorkerAPI) (bool, error) {
		r, err := apply(w)
		if err != nil {
			return false, err
		}
		mu.Lock()
		agg.ChangedNodes += r.ChangedNodes
		agg.Routes += r.Routes
		mu.Unlock()
		return r.Changed, nil
	})
	if err != nil {
		return false, err
	}
	c.pmu.Lock()
	c.prog.Shard = shardIdx
	c.prog.Round = round
	c.prog.RoutesSettled = agg.Routes
	c.prog.ChangedNodes = agg.ChangedNodes
	c.pmu.Unlock()
	if c.reg != nil {
		c.reg.Counter(MetricCPIterations,
			"Control plane convergence iterations by protocol.", "protocol").
			Inc(protocol)
		c.reg.Gauge(MetricCPRoutesSettled,
			"Routes installed across all workers after the last iteration.", "protocol").
			Set(float64(agg.Routes), protocol)
		c.reg.Gauge(MetricCPChangedNodes,
			"Nodes that changed state in the last iteration.", "protocol").
			Set(float64(agg.ChangedNodes), protocol)
	}
	return changed, nil
}

// --- Worker side ---

// workerObs is the observability handle of one in-process worker. It is
// run-independent infrastructure: Setup's full reset leaves it alone, and
// every instrument is nil-safe so an unwired worker pays only nil checks.
type workerObs struct {
	tracer *obs.Tracer
	reg    *obs.Registry
	// tracker mirrors Worker.tracker for scrape-time reads: Setup replaces
	// the tracker under phaseMu, which a /metrics scrape must not wait on.
	tracker atomic.Pointer[metrics.Tracker]
	// shardSpan covers BeginShard..EndShard; phase spans nest under it.
	shardSpan *obs.Span
	// pendingTC is the one-shot trace parent armed (SetNextTraceParent) by
	// the controller's last phase-class RPC; the next phase span consumes it
	// and parents under the controller's client rpc span instead of the
	// local shard span. Atomic because the RPC layer stores it from the
	// serving goroutine.
	pendingTC atomic.Pointer[obs.TraceContext]
	// cur is the TraceContext of the most recently opened phase/shard span,
	// sampled by peer-bound requests (RemoteWorker.SetTraceSource) so peer
	// pulls carry the phase they were issued from.
	cur atomic.Value // obs.TraceContext
}

// takeTC consumes the pending cross-process trace parent (zero when the
// current phase call arrived without one — the in-process transport).
func (o *workerObs) takeTC() obs.TraceContext {
	if p := o.pendingTC.Swap(nil); p != nil {
		return *p
	}
	return obs.TraceContext{}
}

func (o *workerObs) setCur(tc obs.TraceContext) { o.cur.Store(tc) }

func (o *workerObs) curTC() obs.TraceContext {
	tc, _ := o.cur.Load().(obs.TraceContext)
	return tc
}

// SetNextTraceParent implements the sidecar trace-parent slot, armed
// immediately before each phase-class call: by ObserveTraced with the
// client rpc span's context on the in-process transport, and by the sidecar
// Service with the context a remote phase call carried in. Either way the
// phase span parents under the exact rpc span that triggered it. The
// caller has already filtered to phase-class methods and valid contexts.
func (w *Worker) SetNextTraceParent(tc sidecar.TraceContext) {
	if w.obs == nil || w.obs.tracer == nil || !tc.Valid() {
		return
	}
	t := tc
	w.obs.pendingTC.Store(&t)
}

// SetObservability attaches a tracer and metrics registry to the worker.
// Call before Setup; in-process controllers pass their own tracer/registry
// so one trace holds the whole distributed run, while cmd/s2worker passes a
// process-local pair served on -obs-addr. The handles survive Setup's full
// reset (recovery re-Setups workers that keep their telemetry).
func (w *Worker) SetObservability(tracer *obs.Tracer, reg *obs.Registry) {
	if tracer == nil && reg == nil {
		return
	}
	w.obs = &workerObs{tracer: tracer, reg: reg}
}

// obsSetupDone publishes the freshly built tracker and registers the
// worker-labelled instruments; called at the end of Worker.Setup with the
// worker id known.
func (w *Worker) obsSetupDone() {
	if w.obs == nil {
		return
	}
	if s := w.obs.shardSpan; s != nil {
		s.End() // recovery re-Setup can interrupt an open shard
		w.obs.shardSpan = nil
	}
	// Export mode (remote workers): claim a disjoint span-id range so ids
	// minted here never collide with the controller's or other workers' when
	// the harvested spans merge into one trace.
	if w.obs.tracer.Exporting() {
		w.obs.tracer.EnsureIDBase(uint64(w.id+1) << 40)
	}
	w.obs.tracker.Store(w.tracker)
	if w.obs.reg == nil {
		return
	}
	lbl := fmt.Sprint(w.id)
	mem := w.obs.reg.Gauge(MetricModelMemory,
		"Modelled memory per worker in bytes (current and peak).",
		"worker", "kind")
	get := func(peak bool) func() float64 {
		return func() float64 {
			t := w.obs.tracker.Load()
			if t == nil {
				return 0
			}
			if peak {
				return float64(t.Peak())
			}
			return float64(t.Current())
		}
	}
	mem.SetFunc(get(false), lbl, "current")
	mem.SetFunc(get(true), lbl, "peak")
}

// obsWorkerSpan opens a span on the worker's timeline. Parent precedence:
// the controller's propagated rpc span when the current phase call carried a
// TraceContext (remote mode — the span lands under the exact client RPC that
// triggered it after harvesting), else the open shard span, else a root.
// Returns nil (a no-op span) when tracing is off.
func (w *Worker) obsWorkerSpan(name string, attrs ...obs.Attr) *obs.Span {
	if w.obs == nil || w.obs.tracer == nil {
		return nil
	}
	var span *obs.Span
	if tc := w.obs.takeTC(); tc.Valid() {
		span = w.obs.tracer.StartRemote(name, tc, attrs...).SetWorker(w.id)
	} else if w.obs.shardSpan != nil {
		span = w.obs.shardSpan.Child(name, attrs...)
	} else {
		span = w.obs.tracer.Start(name, attrs...).SetWorker(w.id)
	}
	w.obs.setCur(span.TC())
	return span
}

// obsBeginShard opens the shard span covering one BeginShard..EndShard
// round; obsEndShard closes it. With a propagated parent the shard span
// nests under the controller's rpc:BeginShard client span.
func (w *Worker) obsBeginShard(index, prefixes int) {
	if w.obs == nil || w.obs.tracer == nil {
		return
	}
	if s := w.obs.shardSpan; s != nil {
		s.End()
	}
	attrs := []obs.Attr{obs.Int("shard", index), obs.Int("prefixes", prefixes)}
	if tc := w.obs.takeTC(); tc.Valid() {
		w.obs.shardSpan = w.obs.tracer.StartRemote("shard", tc, attrs...).SetWorker(w.id)
	} else {
		w.obs.shardSpan = w.obs.tracer.Start("shard", attrs...).SetWorker(w.id)
	}
	w.obs.setCur(w.obs.shardSpan.TC())
}

func (w *Worker) obsEndShard() {
	if w.obs == nil || w.obs.shardSpan == nil {
		return
	}
	w.obs.shardSpan.End()
	w.obs.shardSpan = nil
}

// obsRoutesExchanged counts routes pulled across the simulation fabric
// (BGP advertisements or OSPF LSAs) during a Gather phase.
func (w *Worker) obsRoutesExchanged(protocol string, n int) {
	if w.obs == nil || w.obs.reg == nil || n == 0 {
		return
	}
	w.obs.reg.Counter(MetricRoutesExchanged,
		"Routes exchanged (pulled) during control plane simulation.",
		"worker", "protocol").
		Add(float64(n), fmt.Sprint(w.id), protocol)
}

// obsBDD records the engine's node count after compilation or GC, and GC
// runs as they happen.
func (w *Worker) obsBDD(nodes int, gcRun bool) {
	if w.obs == nil || w.obs.reg == nil {
		return
	}
	lbl := fmt.Sprint(w.id)
	w.obs.reg.Gauge(MetricBDDNodes,
		"Live BDD nodes in the worker's engine.", "worker").
		Set(float64(nodes), lbl)
	if gcRun {
		w.obs.reg.Counter(MetricBDDGCRuns,
			"BDD garbage collections run.", "worker").
			Inc(lbl)
	}
}

// gcPauseBuckets resolve the engine's µs-scale stop-the-world pauses:
// 5µs .. 250ms, roughly ×2–×2.5 steps. DefLatencyBuckets start at 100µs,
// which would flatten every healthy collection into the first bucket.
var gcPauseBuckets = []float64{
	0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
}

// obsGC records one completed collection: the pause distribution split by
// phase (mark/sweep/relocate labels plus a "total" series), nodes freed,
// and the op-cache relocation outcome.
func (w *Worker) obsGC(st bdd.GCStats) {
	if w.obs == nil || w.obs.reg == nil {
		return
	}
	lbl := fmt.Sprint(w.id)
	pause := w.obs.reg.Histogram(MetricBDDGCPause,
		"BDD GC stop-the-world pause by phase (total = whole collection).",
		gcPauseBuckets, "worker", "phase")
	pause.Observe(st.LastPause.Seconds(), lbl, "total")
	pause.Observe(st.LastMark.Seconds(), lbl, "mark")
	pause.Observe(st.LastSweep.Seconds(), lbl, "sweep")
	pause.Observe(st.LastRelocate.Seconds(), lbl, "relocate")
	w.obs.reg.Counter(MetricBDDGCFreed,
		"BDD nodes reclaimed by garbage collection.", "worker").
		Add(float64(st.LastFreed), lbl)
	w.obs.reg.Counter(MetricBDDCacheReloc,
		"Op-cache entries relocated (translated to new refs) across GCs.",
		"worker").
		Add(float64(st.LastCacheRelocated), lbl)
	w.obs.reg.Counter(MetricBDDCacheDropped,
		"Op-cache entries dropped at GC because an operand or result died.",
		"worker").
		Add(float64(st.LastCacheDropped), lbl)
}

// obsWireBytes counts data-plane packet payload bytes shipped across
// worker boundaries (forwarding fan-out and outcome harvest).
func (w *Worker) obsWireBytes(n int) {
	if w.obs == nil || w.obs.reg == nil || n == 0 {
		return
	}
	w.obs.reg.Counter(MetricWireBytes,
		"Cross-worker data-plane payload bytes.", "worker").
		Add(float64(n), fmt.Sprint(w.id))
}

// obsWireDeduped counts node references resolved from already-transmitted
// wire-session state — the re-encodings a per-packet codec would have paid.
func (w *Worker) obsWireDeduped(n int) {
	if w.obs == nil || w.obs.reg == nil || n == 0 {
		return
	}
	w.obs.reg.Counter(MetricWireDeduped,
		"BDD nodes deduplicated by the shared-substrate wire codec.", "worker").
		Add(float64(n), fmt.Sprint(w.id))
}

// obsSpill counts bytes written to the spill directory between shards.
func (w *Worker) obsSpill(bytes int64) {
	if w.obs == nil || w.obs.reg == nil {
		return
	}
	w.obs.reg.Counter(MetricSpillBytes,
		"Bytes of shard results spilled to disk.", "worker").
		Add(float64(bytes), fmt.Sprint(w.id))
}

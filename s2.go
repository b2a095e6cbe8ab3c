package s2

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"s2/internal/config"
	"s2/internal/core"
	"s2/internal/dataplane"
	"s2/internal/fault"
	"s2/internal/obs"
	"s2/internal/partition"
	"s2/internal/route"
	"s2/internal/sidecar"
)

// slowWorkerMethods are the phase RPCs delayed by Options.SlowWorkerDelay.
// Ping is deliberately absent (the failure detector must keep passing), as
// are the probe-class pulls (they observe the straggler, not cause it).
var slowWorkerMethods = []string{
	"BeginShard", "GatherBGP", "ApplyBGP", "GatherOSPF", "ApplyOSPF",
	"EndShard", "ComputeDP", "BeginQueryBatch", "DPRound",
	"FinishQuery",
}

// Network is a parsed configuration snapshot ready for verification.
type Network struct {
	snap  *config.Snapshot
	texts map[string]string
}

// LoadDirectory parses every *.cfg file in dir.
func LoadDirectory(dir string) (*Network, error) {
	snap, err := config.ParseDirectory(dir)
	if err != nil {
		return nil, err
	}
	texts := make(map[string]string, len(snap.Devices))
	// Re-read through the snapshot is not possible (texts are not
	// retained), so load the files again keyed by hostname.
	raw, err := readDirTexts(dir)
	if err != nil {
		return nil, err
	}
	for name := range snap.Devices {
		text, ok := raw[name]
		if !ok {
			return nil, fmt.Errorf("s2: no config text for device %q", name)
		}
		texts[name] = text
	}
	return &Network{snap: snap, texts: texts}, nil
}

// LoadConfigs parses configuration texts keyed by hostname.
func LoadConfigs(texts map[string]string) (*Network, error) {
	keyed := make(map[string]string, len(texts))
	for name, text := range texts {
		keyed[name+".cfg"] = text
	}
	snap, err := config.ParseTexts(keyed)
	if err != nil {
		return nil, err
	}
	return &Network{snap: snap, texts: texts}, nil
}

// Devices returns device hostnames in sorted order.
func (n *Network) Devices() []string { return n.snap.DeviceNames() }

// Size returns the number of devices.
func (n *Network) Size() int { return len(n.snap.Devices) }

// Options configures a Verifier.
type Options struct {
	// Workers is the number of in-process workers (default 1).
	Workers int
	// WorkerAddrs, when set, are sidecar RPC addresses of pre-started
	// worker processes (cmd/s2worker); Workers is then ignored.
	WorkerAddrs []string
	// PartitionScheme is one of "metis" (default), "random", "expert",
	// "imbalanced", "commheavy".
	PartitionScheme string
	// Shards enables prefix sharding when > 1.
	Shards int
	// Seed fixes partitioning and shard shuffling (default 1).
	Seed int64
	// WaypointBits is the number of metadata bits available for waypoint
	// queries (default 0).
	WaypointBits int
	// MemoryBudgetBytes is the modelled per-worker memory budget
	// (0 = unlimited).
	MemoryBudgetBytes int64
	// SpillDir keeps each shard's results on disk, one file per shard,
	// from the shard's end until the next data-plane compute harvests and
	// deletes them.
	SpillDir string
	// KeepRIBs retains full RIBs for the RIBs accessor.
	KeepRIBs bool
	// LoadEstimator biases the partitioner with per-device load
	// estimates (see FatTreeLoadEstimator).
	LoadEstimator func(device string) int64
	// Parallelism bounds each worker's goroutine pool for the per-node
	// simulation loops (0 = all CPUs; 1 runs the same chunked bodies inline
	// on one goroutine, with identical results; cmd/s2 -procs).
	Parallelism int
	// GCStress makes every worker's BDD GC pacer collect at each safe
	// point where the node table grew at all (cmd/s2 -gc-stress). Results
	// are byte-identical; used by CI to exercise relocation heavily.
	GCStress bool
	// RPCTimeout bounds every controller→worker (and worker→worker) RPC
	// attempt (0 = no deadline).
	RPCTimeout time.Duration
	// RPCRetries is the number of extra attempts for idempotent RPCs that
	// fail transiently.
	RPCRetries int
	// HeartbeatInterval enables the failure detector: workers are pinged
	// at this interval and declared dead after three consecutive misses
	// (0 disables heartbeats).
	HeartbeatInterval time.Duration
	// Recover re-partitions a dead worker's segment onto the survivors
	// and re-executes the in-flight phase instead of failing the run.
	Recover bool
	// SlowWorkerDelay, when > 0, wraps worker SlowWorker's transport with
	// a persistent per-call delay on every phase RPC — an injected
	// straggler for exercising the straggler score (cmd/s2serve
	// -slow-worker). Heartbeats are left untouched so the failure detector
	// does not declare the worker dead.
	SlowWorkerDelay time.Duration
	// SlowWorker is the worker index slowed by SlowWorkerDelay (default 0).
	SlowWorker int
	// Tracer, when set, records the run as hierarchical spans (controller
	// stages, shards, convergence rounds, RPCs) exportable as Chrome
	// trace_event JSON via its WriteChromeTrace method (cmd/s2 -trace).
	Tracer *obs.Tracer
	// Metrics, when set, receives Prometheus-style counters, gauges, and
	// histograms for the run; serve it with obs.ServeIntrospection
	// (cmd/s2 -obs-addr). It also turns on fleet health: each round's
	// per-worker straggler score, and a sampler that pulls every worker's
	// vitals over the sidecar PullStats RPC each HeartbeatInterval (else
	// every 5s) into the s2_worker_* gauges. Unset, no sampler starts. The
	// sampler goroutine holds the verifier and its workers until Close, so
	// a Verifier with a registry must be Closed.
	Metrics *obs.Registry
	// Logger, when set, receives leveled structured logs from the
	// controller, delta planner, and in-process workers (the -log-level /
	// -log-json flags of the binaries).
	Logger *slog.Logger
}

// FatTreeLoadEstimator returns the paper's per-role load estimates for a
// k-pod FatTree (§4.1), for use as Options.LoadEstimator.
func FatTreeLoadEstimator(k int) func(string) int64 {
	return partition.EstimateFatTreeLoad(k)
}

// Verifier runs the distributed verification pipeline.
//
// Concurrency: read-only operations against resident state (Check,
// CheckBatch, CheckAllPairs, RIBs, RouteCount) may run concurrently with
// each other; state-changing operations (SimulateControlPlane,
// ComputeDataPlane, ApplyDelta) take the verifier's write lock and are
// exclusive. A query therefore always observes one verified epoch — never
// a half-applied delta — and the epoch it reports is the epoch it was
// answered against.
type Verifier struct {
	net  *Network
	ctrl *core.Controller

	// qmu is the query-plane readers/writer lock described above; it also
	// guards cpDone/dpDone.
	qmu    sync.RWMutex
	cpDone bool
	dpDone bool
}

// NewVerifier builds a verifier over the network.
func NewVerifier(n *Network, opts Options) (*Verifier, error) {
	scheme := partition.Metis
	if opts.PartitionScheme != "" {
		var err error
		scheme, err = partition.ParseScheme(opts.PartitionScheme)
		if err != nil {
			return nil, err
		}
	}
	workers := opts.Workers
	if workers < 1 && len(opts.WorkerAddrs) == 0 {
		workers = 1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	var wrap func(id int, w sidecar.WorkerAPI) sidecar.WorkerAPI
	if opts.SlowWorkerDelay > 0 {
		slow, delay := opts.SlowWorker, opts.SlowWorkerDelay
		wrap = func(id int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
			if id != slow {
				return w
			}
			// Delay phase RPCs only: Ping stays fast (failure detector) and
			// the probe-class RPCs stay honest (they measure the straggler).
			plans := make([]fault.Plan, 0, len(slowWorkerMethods))
			for _, m := range slowWorkerMethods {
				plans = append(plans, fault.Plan{Method: m, Mode: fault.Delay, Delay: delay})
			}
			return fault.NewInjector(w, plans...)
		}
	}
	ctrl, err := core.NewController(n.snap, n.texts, core.Options{
		Workers:      workers,
		WorkerAddrs:  opts.WorkerAddrs,
		Scheme:       scheme,
		Shards:       opts.Shards,
		Seed:         seed,
		MetaBits:     opts.WaypointBits,
		MemoryBudget: opts.MemoryBudgetBytes,
		SpillDir:     opts.SpillDir,
		KeepRIBs:     opts.KeepRIBs,
		LoadOf:       opts.LoadEstimator,

		Parallelism: opts.Parallelism,
		GCStress:    opts.GCStress,

		RPCTimeout:        opts.RPCTimeout,
		RPCRetries:        opts.RPCRetries,
		HeartbeatInterval: opts.HeartbeatInterval,
		Recover:           opts.Recover,
		WrapWorker:        wrap,

		Tracer:  opts.Tracer,
		Metrics: opts.Metrics,
		Logger:  opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	return &Verifier{net: n, ctrl: ctrl}, nil
}

// TopologyWarnings lists non-fatal inconsistencies found while deriving
// the topology (unresolvable BGP neighbors, remote-as mismatches) — often
// the first misconfigurations a verifier surfaces.
func (v *Verifier) TopologyWarnings() []string {
	return append([]string(nil), v.ctrl.Network().Warnings...)
}

// SimulateControlPlane runs the distributed fixed-point route computation
// (per prefix shard when sharding is enabled).
func (v *Verifier) SimulateControlPlane() error {
	v.qmu.Lock()
	defer v.qmu.Unlock()
	return v.simulateControlPlaneLocked()
}

func (v *Verifier) simulateControlPlaneLocked() error {
	if err := v.ctrl.RunControlPlane(); err != nil {
		return err
	}
	v.cpDone = true
	return nil
}

// ComputeDataPlane builds FIBs and per-port predicates on every worker.
// The returned warnings report unresolvable next hops.
func (v *Verifier) ComputeDataPlane() ([]string, error) {
	v.qmu.Lock()
	defer v.qmu.Unlock()
	return v.computeDataPlaneLocked()
}

func (v *Verifier) computeDataPlaneLocked() ([]string, error) {
	if !v.cpDone {
		if err := v.simulateControlPlaneLocked(); err != nil {
			return nil, err
		}
	}
	warnings, err := v.ctrl.ComputeDataPlane()
	if err != nil {
		return nil, err
	}
	v.dpDone = true
	return warnings, nil
}

// ensureDP makes the data plane resident, taking the write lock only when
// it is not already; warm callers pay one RLock'd flag read.
func (v *Verifier) ensureDP() error {
	v.qmu.RLock()
	done := v.dpDone
	v.qmu.RUnlock()
	if done {
		return nil
	}
	v.qmu.Lock()
	defer v.qmu.Unlock()
	if v.dpDone {
		return nil
	}
	_, err := v.computeDataPlaneLocked()
	return err
}

// Violation is one property violation.
type Violation struct {
	// Kind is "loop", "blackhole", "multipath-consistency", "waypoint",
	// or "unreachable".
	Kind string
	// Source and Node locate the violation when known.
	Source, Node string
	// Detail is a human-readable explanation; ExampleDst a concrete
	// destination IP drawn from the violating packets.
	Detail     string
	ExampleDst string
}

func fromDP(vs []dataplane.Violation) []Violation {
	out := make([]Violation, 0, len(vs))
	for _, v := range vs {
		out = append(out, Violation{
			Kind:       v.Kind,
			Source:     v.Source,
			Node:       v.Node,
			Detail:     v.Detail,
			ExampleDst: route.FormatAddr(v.ExampleDst),
		})
	}
	return out
}

// ReachabilityReport is the result of an all-pair reachability check.
type ReachabilityReport struct {
	// Sources and Dests count the prefix-owning nodes checked.
	Sources, Dests int
	// Unreached lists destination nodes with incomplete coverage.
	Unreached []string
	// Violations are the generic property findings.
	Violations []Violation
	// Epoch is the verified-state epoch the check was answered against.
	Epoch uint64
}

// OK reports whether the network passed cleanly.
func (r *ReachabilityReport) OK() bool {
	return len(r.Unreached) == 0 && len(r.Violations) == 0
}

// String summarizes the report.
func (r *ReachabilityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "all-pair reachability: %d sources × %d dests", r.Sources, r.Dests)
	if r.OK() {
		b.WriteString(": OK")
		return b.String()
	}
	if len(r.Unreached) > 0 {
		fmt.Fprintf(&b, "; %d unreached (%s)", len(r.Unreached), strings.Join(r.Unreached, ", "))
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s: %s (src=%s node=%s dst=%s)", v.Kind, v.Detail, v.Source, v.Node, v.ExampleDst)
	}
	return b.String()
}

// CheckAllPairs verifies all-pair reachability (the paper's default
// property, §5.2) in one distributed symbolic traversal.
func (v *Verifier) CheckAllPairs() (*ReachabilityReport, error) {
	if err := v.ensureDP(); err != nil {
		return nil, err
	}
	v.qmu.RLock()
	defer v.qmu.RUnlock()
	res, err := v.ctrl.CheckAllPairs()
	if err != nil {
		return nil, err
	}
	return &ReachabilityReport{
		Sources:    res.Sources,
		Dests:      res.Dests,
		Unreached:  res.Unreached,
		Violations: fromDP(res.Violations),
		Epoch:      res.Epoch,
	}, nil
}

// RIBs returns each device's computed routes as formatted strings (the
// show-ip-route view); requires Options.KeepRIBs.
func (v *Verifier) RIBs() (map[string][]string, error) {
	v.qmu.RLock()
	defer v.qmu.RUnlock()
	ribs, err := v.ctrl.CollectRIBs()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string, len(ribs))
	for node, rib := range ribs {
		for _, r := range rib.All() {
			out[node] = append(out[node], r.String())
		}
	}
	return out, nil
}

// RouteCount returns the total number of computed routes across all
// devices; requires Options.KeepRIBs.
func (v *Verifier) RouteCount() (int, error) {
	v.qmu.RLock()
	defer v.qmu.RUnlock()
	ribs, err := v.ctrl.CollectRIBs()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, rib := range ribs {
		total += rib.RouteCount()
	}
	return total, nil
}

// WorkerStat is one worker's resource accounting.
type WorkerStat struct {
	Worker     int
	Nodes      int
	PeakBytes  int64
	RoutePulls int64
	PacketsIn  int64
}

// Stats reports per-worker accounting.
func (v *Verifier) Stats() ([]WorkerStat, error) {
	raw, err := v.ctrl.Stats()
	if err != nil {
		return nil, err
	}
	out := make([]WorkerStat, len(raw))
	for i, s := range raw {
		out[i] = WorkerStat{
			Worker:     s.WorkerID,
			Nodes:      s.Nodes,
			PeakBytes:  s.PeakBytes,
			RoutePulls: s.RoutePulls,
			PacketsIn:  s.PacketsIn,
		}
	}
	return out, nil
}

// PeakMemoryBytes returns the highest per-worker modelled peak.
func (v *Verifier) PeakMemoryBytes() (int64, error) {
	raw, err := v.ctrl.Stats()
	if err != nil {
		return 0, err
	}
	return core.MaxPeakBytes(raw), nil
}

// FaultStats reports fault-tolerance accounting as named counters:
// rpc.retries, rpc.timeouts, rpc.failures, heartbeat.misses,
// heartbeat.deaths, worker.deaths, recoveries. Zero counters are omitted.
func (v *Verifier) FaultStats() map[string]int64 {
	return v.ctrl.FaultCounters().Snapshot()
}

// Progress returns the live run view (current stage, shard, convergence
// iteration, routes settled) streamed from the workers' per-iteration
// replies. Safe to call concurrently with a run — it backs the /progress
// endpoint of cmd/s2 -obs-addr.
func (v *Verifier) Progress() core.Progress { return v.ctrl.Progress() }

// Close stops the failure detector and tears down worker connections. The
// verifier is unusable afterwards. Close is idempotent and safe to call
// concurrently with in-flight queries.
func (v *Verifier) Close() error { return v.ctrl.Close() }

// DeltaReport describes one applied configuration delta and the
// re-verification it triggered.
type DeltaReport struct {
	// Class is the most invasive per-device change class: "none", "dp",
	// "orig", "policy", or "topo".
	Class string
	// Mode is the re-verification path taken: "noop" (nothing semantic
	// changed), "dp" (data-plane recompute only), "shards" (dirty prefix
	// shards re-simulated), or "full" (complete pipeline).
	Mode string
	// Changed maps modified devices to their change class; Added and
	// Removed list devices that appeared or disappeared (a rename is a
	// remove plus an add).
	Changed map[string]string
	Added   []string
	Removed []string
	// DirtyShards is how many prefix-shard rounds were re-simulated;
	// TotalShards is the shard count of the new verified state.
	DirtyShards int
	TotalShards int
	// DirtyShardIDs lists the shard rounds that ran, in execution order (a
	// runtime dependency merge repeats the absorbing shard's id) — the
	// audit trail behind every skipped shard's soundness claim.
	DirtyShardIDs []int
	// StageSeconds maps the pipeline stages this delta ran (setup, cp-ospf,
	// cp-bgp, dp-compute, dp-forward) to the wall seconds it spent in them.
	StageSeconds map[string]float64
	// Epoch is the verified-state epoch after the delta.
	Epoch uint64
	// Warnings are FIB resolution warnings from the data-plane compute; an
	// incremental compute reports only the entries it re-resolved.
	Warnings []string
	// RecompiledNodes is how many nodes had their forwarding predicates
	// compiled from scratch (all of them on the full path; otherwise only
	// nodes whose ACLs, interfaces or static routes changed).
	// PatchedPrefixes is how many changed (node, prefix) forwarding results
	// were patched into the resident predicates instead.
	RecompiledNodes int
	PatchedPrefixes int
}

// ApplyDelta applies per-device configuration changes to the resident
// verified state and re-verifies incrementally: set maps device names to
// replacement config texts (a text whose parsed hostname differs renames
// the device) and remove lists devices to delete. Only the shards whose
// prefixes the delta can affect are re-simulated; topology-class changes
// fall back to a full re-run. On return the verifier answers queries for
// the new configs exactly as if they had been verified from cold.
func (v *Verifier) ApplyDelta(set map[string]string, remove []string) (*DeltaReport, error) {
	v.qmu.Lock()
	defer v.qmu.Unlock()
	res, err := v.ctrl.ApplyDelta(set, remove)
	if err != nil {
		return nil, err
	}
	v.cpDone, v.dpDone = true, true
	changed := make(map[string]string, len(res.Changed))
	for name, cl := range res.Changed {
		changed[name] = cl.String()
	}
	var stages map[string]float64
	if len(res.Stages) > 0 {
		stages = make(map[string]float64, len(res.Stages))
		for name, d := range res.Stages {
			stages[name] = d.Seconds()
		}
	}
	return &DeltaReport{
		Class:         res.Class.String(),
		Mode:          res.Mode,
		Changed:       changed,
		Added:         res.Added,
		Removed:       res.Removed,
		DirtyShards:   res.DirtyShards,
		TotalShards:   res.TotalShards,
		DirtyShardIDs: res.DirtyShardIDs,
		StageSeconds:  stages,
		Epoch:         res.Epoch,
		Warnings:      res.Warnings,

		RecompiledNodes: res.RecompiledNodes,
		PatchedPrefixes: res.PatchedPrefixes,
	}, nil
}

// Epoch returns the verified-state epoch: 0 until the first verification
// completes, then +1 per completed run or accepted delta. Safe from any
// goroutine.
func (v *Verifier) Epoch() uint64 { return v.ctrl.Epoch() }

// ShardCount returns the prefix-shard count of the resident verified state
// (0 before the control plane has run).
func (v *Verifier) ShardCount() int { return v.ctrl.ShardCount() }

// SetRequestSpan points the verifier's span tree at root: pipeline spans
// opened while it is current parent under it. The serving layer gives each
// request its own root so a long-running daemon yields per-request traces
// instead of one process-lifetime trace. Returns the previous current
// span; restore it when the request completes. Call only between pipeline
// operations.
func (v *Verifier) SetRequestSpan(root *obs.Span) *obs.Span {
	return v.ctrl.SetRequestSpan(root)
}

// Devices returns the device hostnames of the currently verified
// configuration snapshot, sorted.
func (v *Verifier) Devices() []string { return v.ctrl.DeviceNames() }

// ConfigText returns the raw config text of one device ("" if unknown).
func (v *Verifier) ConfigText(device string) string { return v.ctrl.ConfigText(device) }

// HarvestSpans drains remote workers' span export rings into the verifier's
// trace now. Normally unnecessary — harvests piggyback on stage boundaries
// and Close — but useful before writing a trace mid-run.
func (v *Verifier) HarvestSpans() { v.ctrl.HarvestSpans() }

// FlightRecorder exposes the controller's always-on ring of structured
// events (phase transitions, RPC faults, evictions) for post-mortem dumps.
func (v *Verifier) FlightRecorder() *obs.FlightRecorder { return v.ctrl.FlightRecorder() }

// AttributionReport distills the stage clock, the merged trace and worker
// stats into a per-worker × per-stage accounting table (wall time, RPCs,
// bytes, BDD nodes, GC pauses). Render with String() or JSON().
func (v *Verifier) AttributionReport() *core.AttributionReport {
	return v.ctrl.AttributionReport()
}

// PhaseDurations reports the wall time spent in each pipeline stage that
// has run (the stage names of DeltaReport.StageSeconds).
func (v *Verifier) PhaseDurations() map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, st := range v.ctrl.Stages() {
		out[name] = st.Wall
	}
	return out
}

// readDirTexts loads *.cfg files keyed by hostname (filename stem).
func readDirTexts(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cfg") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[strings.TrimSuffix(e.Name(), ".cfg")] = string(data)
	}
	return out, nil
}

// ShardMerges reports runtime shard merges performed during control plane
// simulation: when a conditional-advertisement dependency not captured in
// the static prefix dependency graph is detected at simulation time, the
// affected shards are merged and recomputed (§7).
func (v *Verifier) ShardMerges() []string {
	return v.ctrl.ShardMergeLog()
}

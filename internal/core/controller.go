package core

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s2/internal/bdd"
	"s2/internal/config"
	"s2/internal/dataplane"
	"s2/internal/fault"
	"s2/internal/metrics"
	"s2/internal/obs"
	"s2/internal/partition"
	"s2/internal/route"
	"s2/internal/shard"
	"s2/internal/sidecar"
	"s2/internal/topology"
)

// Options configures a verification run.
type Options struct {
	// Workers is the worker count for the in-process transport (ignored
	// when WorkerAddrs is set).
	Workers int
	// WorkerAddrs, when non-empty, are the sidecar RPC addresses of
	// pre-started worker processes (cmd/s2worker).
	WorkerAddrs []string
	// Scheme selects the partitioner (default metis).
	Scheme partition.Scheme
	// Shards is the prefix-shard count (≤1 disables sharding).
	Shards int
	// Seed makes partitioning and shard shuffling reproducible.
	Seed int64
	// MetaBits sizes the packet metadata field (waypoint bits).
	MetaBits int
	// MemoryBudget is the modelled per-worker memory budget in bytes
	// (0 = unlimited); exceeding it aborts the run with an OOM error,
	// reproducing the paper's -Xmx worker limit.
	MemoryBudget int64
	// MaxBDDNodes bounds each worker's BDD node table (0 = unlimited).
	MaxBDDNodes int
	// SpillDir keeps shard results on disk until the next data-plane
	// compute harvests them (see sidecar.SetupRequest.SpillDir).
	SpillDir string
	// KeepRIBs retains full RIBs for CollectRIBs (equivalence testing).
	KeepRIBs bool
	// LoadOf estimates per-node simulation load for the partitioner
	// (§4.1); nil means uniform.
	LoadOf func(device string) int64
	// IgnoreConditionalDeps builds the prefix dependency graph WITHOUT
	// conditional-advertisement edges, deliberately creating the §7
	// "unforeseen dependency" scenario so the runtime detector's shard
	// merge-and-recompute path is exercised. Results are still correct —
	// only the number of shard rounds changes.
	IgnoreConditionalDeps bool
	// Sequential executes each orchestration round's worker calls one at
	// a time instead of concurrently. Results are identical (rounds are
	// barrier-synchronized either way); experiments use it so per-worker
	// durations — and thus the critical-path metric — are not inflated
	// by CPU contention on hosts with fewer cores than workers.
	Sequential bool
	// Parallelism is the per-worker goroutine pool for the per-node loops
	// of the simulation phases (gather/apply, FIB compile, symbolic
	// forwarding). 0 means runtime.NumCPU(); 1 runs the same chunked
	// bodies inline on one goroutine, with byte-identical results.
	// Propagated to every worker via SetupRequest.
	Parallelism int
	// GCStress makes every worker's BDD GC pacer collect at each safe
	// point where the node table grew at all — maximizing collection count
	// to exercise relocation and remapping (results stay byte-identical;
	// CI's gc-smoke uses it).
	GCStress bool

	// RPCTimeout bounds every controller→worker call attempt (0 = no
	// deadline, the pre-fault-tolerance behavior). It also bounds worker
	// peer-to-peer calls (propagated via SetupRequest) and the TCP dial.
	RPCTimeout time.Duration
	// RPCRetries is the number of extra attempts for idempotent RPCs that
	// fail transiently; non-idempotent phase calls are never retried.
	RPCRetries int
	// HeartbeatInterval enables the failure detector: workers are pinged
	// at this interval and declared dead after HeartbeatMisses consecutive
	// failures (0 disables heartbeats).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the consecutive-miss death threshold (default 3).
	HeartbeatMisses int
	// Recover re-partitions a dead worker's segment onto the survivors and
	// re-executes the in-flight phase. Without it, a worker failure
	// surfaces as a typed transient error.
	Recover bool
	// WrapWorker, when set, wraps each worker transport as it is created —
	// the hook fault-injection tests use to interpose fault.Injector.
	WrapWorker func(id int, w sidecar.WorkerAPI) sidecar.WorkerAPI

	// Tracer, when set, records the whole run as hierarchical spans:
	// controller stages, prefix shards, convergence rounds, and every RPC.
	// In-process workers share it, so one exported Chrome trace holds the
	// controller and all worker timelines (the -trace flag of cmd/s2).
	Tracer *obs.Tracer
	// Metrics, when set, receives the run's counters/gauges/histograms
	// (RPC latency, routes exchanged, BDD and modelled-memory stats); serve
	// it with obs.ServeIntrospection (the -obs-addr flag). It also gates
	// fleet health (fleet.go): the per-round straggler scores and the
	// vitals sampler, which pulls PullStats from every worker each
	// HeartbeatInterval (else every 5s) into the s2_worker_* gauges. The
	// sampler goroutine holds the controller and its workers until Close,
	// so a controller with a registry must be Closed.
	Metrics *obs.Registry
	// Logger, when set, receives leveled structured logs from the
	// controller, delta planner, and in-process workers (stage progress,
	// delta classifications, recovery events). Every record also lands in
	// the flight recorder of the controller or worker that wrote it, at
	// any level; with a nil Logger that ring is all that keeps them.
	Logger *slog.Logger
}

const (
	// maxRounds guards against non-converging control planes (§7
	// limitation).
	maxRounds = 128
	// maxRecoveries bounds repair attempts per controller.
	maxRecoveries = 8
)

// probeTimeout bounds each liveness probe. With no RPC deadline configured
// probes still need one, otherwise a hung worker would also hang the
// failure detector meant to catch it.
func (o Options) probeTimeout() time.Duration {
	if o.RPCTimeout > 0 {
		return o.RPCTimeout
	}
	return 2 * time.Second
}

func (o Options) faultPolicy() fault.Policy {
	return fault.Policy{Timeout: o.RPCTimeout, Retries: o.RPCRetries, Seed: o.Seed}
}

// Controller is S2's controller (§3.2): parser, partitioner, and the two
// orchestrators (CPO and DPO).
type Controller struct {
	snap       *config.Snapshot
	net        *topology.Network
	opts       Options
	texts      map[string]string
	assignment *partition.Assignment
	shards     []*shard.Shard
	engine     *bdd.Engine
	layout     dataplane.Layout
	// clock times each pipeline stage once: its wall time, and the
	// critical path the rounds run inside it charge (see eachRound).
	clock metrics.StageClock

	// wmu guards the live worker directory below: repair swaps it while
	// the failure detector reads it from its own goroutine.
	wmu     sync.RWMutex
	workers []sidecar.WorkerAPI
	locals  []*Worker               // in-process workers (nil entries in remote mode)
	clients []*sidecar.RemoteWorker // raw RPC clients (nil entries in local mode)
	addrs   []string                // live worker addresses (remote mode)

	faults   *metrics.FaultCounters
	detector *fault.Detector

	// Observability (see observability.go). curSpan holds the innermost
	// open stage/shard/round *obs.Span; RPC hooks sample it concurrently.
	// clientHook builds the per-worker traced RPC hook (nil with obs off).
	tracer     *obs.Tracer
	reg        *obs.Registry
	log        *slog.Logger
	curSpan    atomic.Value
	clientHook func(workerID int) sidecar.TraceHook
	pmu        sync.Mutex
	prog       Progress

	// flight is the controller's always-on flight recorder (see harvest.go
	// for the distributed-trace plumbing it accompanies). skewMu guards the
	// per-client clock-offset estimators; harvestStop/harvestWG manage the
	// background span harvester.
	flight      *obs.FlightRecorder
	skewMu      sync.Mutex
	skews       map[*sidecar.RemoteWorker]*obs.SkewEstimator
	harvestStop chan struct{}
	harvestWG   sync.WaitGroup

	// Fleet health (fleet.go): fleetMu guards the per-worker straggler
	// scores; statsStop/statsWG manage the background vitals sampler.
	fleetMu    sync.Mutex
	stragglers map[int]float64
	statsStop  chan struct{}
	statsWG    sync.WaitGroup

	// Stage flags drive recovery: repair re-Setups the survivors and
	// clears cpDone/dpDone, so each internal runner re-establishes exactly
	// the stages the caller had already requested (the *Wanted flags) —
	// never more, preserving "query before ComputeDP fails" semantics.
	provisioned bool
	setupDone   bool
	cpWanted    bool
	cpDone      bool
	dpWanted    bool
	dpDone      bool
	recoveries  int

	// closed is atomic so in-flight recoverable loops (queries, deltas)
	// observe a concurrent Close without racing; closeMu serializes the
	// teardown body itself so concurrent Close calls are safe and
	// idempotent.
	closed  atomic.Bool
	closeMu sync.Mutex

	// Query plane (queryplane.go): qpMu guards the coalescing window and
	// leader flag; qcMu guards the epoch-keyed answer cache.
	qpMu      sync.Mutex
	qpPending []*queryJob
	qpLeader  bool
	qcMu      sync.Mutex
	qcEpoch   uint64
	qcache    map[uint64]*dataplane.Collector

	// epoch counts successfully verified states: it advances once per
	// completed data-plane compute (cold runs and deltas alike) and once
	// per accepted no-op delta. Serving layers key warm query caches on it.
	// epochAt is the UnixNano timestamp of the last advance, behind the
	// s2_epoch_age_seconds gauge (staleness SLO for serving mode).
	epoch   atomic.Uint64
	epochAt atomic.Int64

	cpRounds   int
	dpRounds   int
	shardMerge []string
}

// NewController parses nothing itself — it receives the parsed snapshot
// plus the raw texts (workers re-parse their own segment, keeping the
// setup payload simple and the parser exercised end to end).
func NewController(snap *config.Snapshot, texts map[string]string, opts Options) (*Controller, error) {
	if opts.Workers < 1 && len(opts.WorkerAddrs) == 0 {
		return nil, fmt.Errorf("core: need at least one worker")
	}
	net, err := topology.Build(snap)
	if err != nil {
		return nil, err
	}
	layout := dataplane.Layout{MetaBits: opts.MetaBits}
	c := &Controller{
		snap:   snap,
		net:    net,
		opts:   opts,
		texts:  texts,
		engine: layout.NewEngine(0),
		layout: layout,
		faults: metrics.NewFaultCounters(),
		flight: obs.NewFlightRecorder(),
		skews:  map[*sidecar.RemoteWorker]*obs.SkewEstimator{},
	}
	c.initObs()
	return c, nil
}

// FlightRecorder exposes the controller's always-on flight recorder for
// SIGQUIT/panic dumps and the /debug/flightrecorder endpoint.
func (c *Controller) FlightRecorder() *obs.FlightRecorder { return c.flight }

// FaultCounters exposes retry/failure/recovery accounting.
func (c *Controller) FaultCounters() *metrics.FaultCounters { return c.faults }

// Close stops the failure detector and tears down remote connections. The
// controller is unusable afterwards. Close is idempotent and safe to call
// concurrently — with itself and with in-flight queries: the closed flag
// flips atomically (recoverable loops stop retrying), the body is
// serialized, and in-flight RPCs on a torn-down client surface as ordinary
// transport errors.
func (c *Controller) Close() error {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	alreadyClosed := c.closed.Swap(true)
	c.stopStatsSampler()
	c.stopHarvester()
	// Final span drain: whatever the workers' export rings still hold must
	// land in the merged trace before the connections go away.
	if !alreadyClosed {
		c.harvestAll()
	}
	c.stopDetector()
	c.wmu.Lock()
	clients := c.clients
	c.clients = nil
	c.workers = nil
	c.locals = nil
	c.wmu.Unlock()
	for _, cl := range clients {
		if cl != nil {
			cl.Close()
		}
	}
	return nil
}

// Network exposes the derived topology (warnings included).
func (c *Controller) Network() *topology.Network { return c.net }

// Assignment exposes the partition (valid after Setup).
func (c *Controller) Assignment() *partition.Assignment { return c.assignment }

// Shards exposes the prefix shards (valid after RunControlPlane).
func (c *Controller) Shards() []*shard.Shard { return c.shards }

// Stages returns each pipeline stage's wall time, critical path and run
// count.
func (c *Controller) Stages() map[string]metrics.StageTime { return c.clock.Snapshot() }

// Epoch returns the verified-state epoch: 0 until the first data plane is
// computed, then +1 per completed verification (full or delta). Safe from
// any goroutine.
func (c *Controller) Epoch() uint64 { return c.epoch.Load() }

// ShardCount returns the prefix-shard count of the resident verified state
// (0 before the control plane has run).
func (c *Controller) ShardCount() int { return len(c.shards) }

// SetRequestSpan points the controller's span tree at root: stages, shard
// rounds, and RPC spans opened while it is current parent under it, so a
// serving layer can give each request its own span tree instead of one
// process-lifetime trace. It returns the previous current span, which the
// caller must restore when the request completes. Only call between
// pipeline operations (the serving layer serializes requests around the
// verifier, so there is never an open stage when it switches roots).
func (c *Controller) SetRequestSpan(root *obs.Span) *obs.Span {
	prev, _ := c.curSpan.Load().(*obs.Span)
	c.curSpan.Store(root)
	return prev
}

// Resident reports whether converged control- and data-plane state is
// resident across the workers — the precondition for answering queries
// without re-running the pipeline and for incremental delta paths.
func (c *Controller) Resident() bool { return c.setupDone && c.cpDone && c.dpDone }

// DeviceNames lists the devices of the current snapshot, sorted.
func (c *Controller) DeviceNames() []string { return c.snap.DeviceNames() }

// ConfigText returns the raw config text for one device ("" if unknown).
func (c *Controller) ConfigText(device string) string { return c.texts[device] }

// CPRounds and DPRounds expose orchestration round counts.
func (c *Controller) CPRounds() int { return c.cpRounds }

// DPRounds returns the total data-plane rounds across queries.
func (c *Controller) DPRounds() int { return c.dpRounds }

// Setup partitions the network and initializes the workers.
func (c *Controller) Setup() error {
	return c.recoverable(c.setup)
}

// setup establishes the transport directory once, then (re)configures it.
func (c *Controller) setup() error {
	if !c.provisioned {
		if err := c.provision(); err != nil {
			return err
		}
		c.provisioned = true
	}
	if err := c.configure(); err != nil {
		return err
	}
	c.startDetector()
	c.startHarvester()
	c.startStatsSampler()
	return nil
}

// newWorkerTransport assembles one worker's call stack: the base transport,
// the test hook (Options.WrapWorker), the RPC telemetry layer, then the
// fault policy (deadlines + retries). Telemetry sits inside the fault layer so each
// retry attempt is recorded as its own RPC span, re-armed with a fresh
// TraceContext — the server-side span parents under the attempt that
// actually reached it.
func (c *Controller) newWorkerTransport(id int, base sidecar.WorkerAPI) sidecar.WorkerAPI {
	w := base
	if c.opts.WrapWorker != nil {
		w = c.opts.WrapWorker(id, w)
	}
	if c.clientHook != nil {
		w = sidecar.ObserveTraced(w, c.clientHook(id))
	}
	if p := c.opts.faultPolicy(); p.Timeout > 0 || p.Retries > 0 {
		caller := fault.NewCaller(p, c.faults)
		caller.SetNotify(func(event, method string, err error) {
			c.log.LogAttrs(context.Background(), slog.LevelDebug, "worker rpc fault", obs.Kind("rpc"), slog.Int("worker", id),
				slog.String("event", event), slog.String("method", method), slog.Any("error", err))
		})
		w = fault.Wrap(w, caller)
	}
	return w
}

// provision creates the worker transports: RPC clients for WorkerAddrs, or
// in-process Workers otherwise.
func (c *Controller) provision() error {
	if len(c.opts.WorkerAddrs) > 0 {
		n := len(c.opts.WorkerAddrs)
		workers := make([]sidecar.WorkerAPI, n)
		clients := make([]*sidecar.RemoteWorker, n)
		for i, addr := range c.opts.WorkerAddrs {
			client, err := sidecar.DialTimeout(addr, c.opts.RPCTimeout)
			if err != nil {
				return err
			}
			clients[i] = client
			workers[i] = c.newWorkerTransport(i, client)
		}
		c.wmu.Lock()
		c.workers, c.clients = workers, clients
		c.locals = make([]*Worker, n)
		c.addrs = append([]string(nil), c.opts.WorkerAddrs...)
		c.wmu.Unlock()
		return nil
	}
	n := c.opts.Workers
	workers := make([]sidecar.WorkerAPI, n)
	locals := make([]*Worker, n)
	for i := range workers {
		locals[i] = NewWorker()
		locals[i].SetObservability(c.tracer, c.reg)
		locals[i].SetLogger(c.opts.Logger)
		workers[i] = c.newWorkerTransport(i, locals[i])
	}
	c.wmu.Lock()
	c.workers, c.locals = workers, locals
	c.clients = make([]*sidecar.RemoteWorker, n)
	c.wmu.Unlock()
	return nil
}

// configure partitions the network across the CURRENT worker directory and
// re-Setups every worker from scratch; recovery calls it again after an
// eviction, with fewer workers. All downstream stage flags reset: the
// control and data planes must re-run against the new partition.
func (c *Controller) configure() error {
	return c.stage(metrics.StageSetup, c.configureBody)
}

func (c *Controller) configureBody() error {
	{
		c.wmu.RLock()
		workers := append([]sidecar.WorkerAPI(nil), c.workers...)
		locals := append([]*Worker(nil), c.locals...)
		addrs := append([]string(nil), c.addrs...)
		c.wmu.RUnlock()

		graph := c.net.Graph(c.opts.LoadOf)
		asg, err := partition.Partition(graph, len(workers), c.opts.Scheme, c.opts.Seed)
		if err != nil {
			return err
		}
		c.assignment = asg
		for _, lw := range locals {
			if lw != nil {
				lw.SetPeers(workers)
			}
		}

		procs := c.opts.Parallelism
		if procs <= 0 {
			procs = runtime.NumCPU()
		}
		err = c.each(nil, func(id int, w sidecar.WorkerAPI) error {
			req := sidecar.SetupRequest{
				ProtocolVersion: sidecar.ProtocolVersion,
				WorkerID:        id,
				Assignment:      c.assignment.Of,
				Configs:         map[string]string{},
				Adjacencies:     map[string][]topology.Adjacency{},
				Sessions:        map[string][]topology.BGPSession{},
				MetaBits:        c.opts.MetaBits,
				MaxBDDNodes:     c.opts.MaxBDDNodes,
				MemoryBudget:    c.opts.MemoryBudget,
				PeerAddrs:       addrs,
				SpillDir:        c.opts.SpillDir,
				KeepRIBs:        c.opts.KeepRIBs,
				RPCTimeout:      c.opts.RPCTimeout,
				RPCRetries:      c.opts.RPCRetries,
				Parallelism:     procs,
				GCStress:        c.opts.GCStress,
			}
			for _, name := range c.assignment.Segment(id) {
				req.Configs[name+".cfg"] = c.texts[name]
				req.Adjacencies[name] = c.net.Adjacencies[name]
				req.Sessions[name] = c.net.Sessions[name]
			}
			return w.Setup(req)
		})
		if err != nil {
			return err
		}
		c.setupDone = true
		c.cpDone, c.dpDone = false, false
		return nil
	}
}

// startDetector launches the heartbeat failure detector over the current
// worker directory (no-op when HeartbeatInterval is 0). On death the
// worker's RPC client is closed so calls hung on it return immediately.
func (c *Controller) startDetector() {
	if c.opts.HeartbeatInterval <= 0 {
		return
	}
	c.stopDetector()
	probe := fault.NewCaller(fault.Policy{Timeout: c.opts.probeTimeout()}, nil)
	c.wmu.RLock()
	n := len(c.workers)
	c.wmu.RUnlock()
	d := fault.NewDetector(n, c.opts.HeartbeatInterval, c.opts.HeartbeatMisses, func(id int) error {
		c.wmu.RLock()
		var w sidecar.WorkerAPI
		if id < len(c.workers) {
			w = c.workers[id]
		}
		c.wmu.RUnlock()
		if w == nil {
			return fault.ErrWorkerDown
		}
		return probe.Do("Ping", false, w.Ping)
	}, c.faults)
	d.OnDead(func(id int) {
		c.log.LogAttrs(context.Background(), slog.LevelWarn, "worker declared dead", obs.Kind("detector"), slog.Int("worker", id))
		c.wmu.RLock()
		var client *sidecar.RemoteWorker
		if id < len(c.clients) {
			client = c.clients[id]
		}
		c.wmu.RUnlock()
		if client != nil {
			client.Close()
		}
	})
	c.detector = d
	d.Start()
}

func (c *Controller) stopDetector() {
	if c.detector != nil {
		c.detector.Stop()
		c.detector = nil
	}
}

// recoverable runs body; on a transient failure with recovery enabled it
// repairs the worker pool (probe → evict the dead → re-partition →
// re-Setup) and re-runs body, which re-establishes any stages the repair
// invalidated. Fatal errors and recovery-disabled runs return immediately.
func (c *Controller) recoverable(body func() error) error {
	for {
		err := body()
		if err == nil || c.closed.Load() || !c.opts.Recover || !fault.IsTransient(err) {
			return err
		}
		if rerr := c.repair(); rerr != nil {
			return fmt.Errorf("core: run failed (%v) and recovery failed: %w", err, rerr)
		}
	}
}

// repair recovers from a worker failure: stop heartbeats, probe everyone,
// evict the dead, re-partition the network over the survivors and re-Setup
// them, then restart heartbeats. Returns an error when no capacity remains
// or the recovery budget is exhausted — the caller fails cleanly instead
// of retrying forever.
func (c *Controller) repair() error {
	c.recoveries++
	c.log.LogAttrs(context.Background(), slog.LevelWarn, "recovery attempt", obs.Kind("recovery"),
		slog.Int("attempt", c.recoveries), slog.Int("budget", maxRecoveries))
	if c.recoveries > maxRecoveries {
		return fmt.Errorf("core: recovery budget exhausted after %d attempts", maxRecoveries)
	}
	c.stopDetector()
	dead := c.probe()
	if err := c.evict(dead); err != nil {
		return err
	}
	if err := c.configure(); err != nil {
		return err
	}
	c.startDetector()
	c.faults.Inc("recoveries")
	return nil
}

// probe pings every current worker once (bounded) and returns the ids that
// failed. The error that triggered recovery cannot be trusted to name the
// dead worker — a healthy worker surfaces its dead PEER's failure when a
// route pull fails — so liveness is established directly.
func (c *Controller) probe() []int {
	c.wmu.RLock()
	workers := append([]sidecar.WorkerAPI(nil), c.workers...)
	c.wmu.RUnlock()
	probe := fault.NewCaller(fault.Policy{Timeout: c.opts.probeTimeout()}, nil)
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w sidecar.WorkerAPI) {
			defer wg.Done()
			errs[i] = probe.Do("Ping", false, w.Ping)
		}(i, w)
	}
	wg.Wait()
	var dead []int
	for i, err := range errs {
		if err != nil {
			dead = append(dead, i)
		}
	}
	return dead
}

// evict removes the dead workers from the directory, closing their RPC
// clients, and drops the old directory's per-slot telemetry (forgetSlots).
// Failing with no survivors is the clean-abort path. Before a dead worker's
// client closes, a bounded best-effort PullSpans salvages whatever spans
// its export ring still holds plus its last flight-recorder page — the
// pre-crash evidence the merged trace would otherwise lose.
func (c *Controller) evict(dead []int) error {
	if len(dead) == 0 {
		return nil
	}
	c.log.LogAttrs(context.Background(), slog.LevelWarn, "evicting dead workers", obs.Kind("evict"), slog.Any("workers", dead))
	c.evictCapture(dead)
	isDead := map[int]bool{}
	for _, id := range dead {
		isDead[id] = true
	}
	c.wmu.Lock()
	before := len(c.workers)
	var workers []sidecar.WorkerAPI
	var locals []*Worker
	var clients []*sidecar.RemoteWorker
	var addrs []string
	var closing []*sidecar.RemoteWorker
	for i := range c.workers {
		if isDead[i] {
			c.faults.Inc("worker.deaths")
			if c.clients[i] != nil {
				closing = append(closing, c.clients[i])
			}
			continue
		}
		workers = append(workers, c.workers[i])
		locals = append(locals, c.locals[i])
		clients = append(clients, c.clients[i])
		if len(c.addrs) > 0 {
			addrs = append(addrs, c.addrs[i])
		}
	}
	survivors := len(workers)
	if survivors > 0 {
		c.workers, c.locals, c.clients, c.addrs = workers, locals, clients, addrs
	}
	c.wmu.Unlock()
	for _, cl := range closing {
		cl.Close()
	}
	if survivors == 0 {
		return fmt.Errorf("core: all %d workers failed, no capacity to recover", len(dead))
	}
	c.forgetSlots(before, survivors, closing)
	return nil
}

// each runs fn on the given workers (nil = all) concurrently and returns
// the first error.
func (c *Controller) each(ids []int, fn func(id int, w sidecar.WorkerAPI) error) error {
	_, _, _, err := c.eachIDs(ids, func(id int, w sidecar.WorkerAPI) (bool, error) {
		return false, fn(id, w)
	})
	return err
}

// eachRound runs one orchestration round on the given workers (nil = all):
// the slowest worker's duration is charged to the critical path of the open
// stage, and every worker's duration feeds the straggler scores under that
// stage's name. It reports whether any worker changed.
func (c *Controller) eachRound(ids []int, fn func(id int, w sidecar.WorkerAPI) (bool, error)) (bool, error) {
	changed, ran, durs, err := c.eachIDs(ids, fn)
	var slowest time.Duration
	for _, d := range durs {
		slowest = max(slowest, d)
	}
	c.observeRoundSkew(c.clock.ChargeRound(slowest), ran, durs)
	return changed, err
}

// eachIDs runs fn on the given workers concurrently (nil = all workers) and
// returns whether any reported a change, the ids it ran on with each one's
// duration, and the first error. fn always receives the worker's position
// in the live directory, so harvest ordering and assignment lookups stay
// consistent with each().
func (c *Controller) eachIDs(ids []int, fn func(id int, w sidecar.WorkerAPI) (bool, error)) (bool, []int, []time.Duration, error) {
	c.wmu.RLock()
	all := append([]sidecar.WorkerAPI(nil), c.workers...)
	c.wmu.RUnlock()
	sel := ids
	if sel == nil {
		sel = make([]int, len(all))
		for i := range all {
			sel[i] = i
		}
	}
	workers := make([]sidecar.WorkerAPI, 0, len(sel))
	idOf := make([]int, 0, len(sel))
	for _, id := range sel {
		if id >= 0 && id < len(all) {
			workers = append(workers, all[id])
			idOf = append(idOf, id)
		}
	}
	changed := make([]bool, len(workers))
	errs := make([]error, len(workers))
	durs := make([]time.Duration, len(workers))
	if c.opts.Sequential {
		for i, w := range workers {
			start := time.Now()
			changed[i], errs[i] = fn(idOf[i], w)
			durs[i] = time.Since(start)
		}
	} else {
		var wg sync.WaitGroup
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w sidecar.WorkerAPI) {
				defer wg.Done()
				start := time.Now()
				changed[i], errs[i] = fn(idOf[i], w)
				durs[i] = time.Since(start)
			}(i, w)
		}
		wg.Wait()
	}
	// A dead worker makes several workers error at once (healthy ones
	// report failed pulls from it). Prefer a transient error so the
	// recovery layer sees the signal it can act on.
	var firstErr error
	any := false
	for i := range workers {
		if errs[i] != nil {
			if fault.IsTransient(errs[i]) {
				return false, idOf, durs, errs[i]
			}
			if firstErr == nil {
				firstErr = errs[i]
			}
		}
		any = any || changed[i]
	}
	if firstErr != nil {
		return false, idOf, durs, firstErr
	}
	return any, idOf, durs, nil
}

// RunControlPlane executes the CPO workflow: OSPF flooding to convergence,
// then the round-based BGP fixed point once per prefix shard (§4.2, §4.5).
func (c *Controller) RunControlPlane() error {
	c.cpWanted = true
	return c.recoverable(c.runControlPlane)
}

func (c *Controller) runControlPlane() error {
	if !c.setupDone {
		if err := c.setup(); err != nil {
			return err
		}
	}
	// IGP before EGP (§4.2).
	hasOSPF, hasBGP := false, false
	for _, dev := range c.snap.Devices {
		if dev.OSPF != nil {
			hasOSPF = true
		}
		if dev.BGP != nil {
			hasBGP = true
		}
	}
	if hasOSPF {
		err := c.stage(metrics.StageCPOSPF, func() error {
			return c.converge("ospf", 0, sidecar.WorkerAPI.GatherOSPF, sidecar.WorkerAPI.ApplyOSPF)
		})
		if err != nil {
			return err
		}
	}
	if !hasBGP {
		c.cpDone = true
		return nil
	}

	// Prefix sharding (§4.5).
	var shards []*shard.Shard
	if c.opts.Shards > 1 {
		var err error
		shards, err = shard.MakeShards(
			shard.BuildDPDGOpts(c.snap, shard.DPDGOptions{IgnoreConditional: c.opts.IgnoreConditionalDeps}),
			c.opts.Shards, c.opts.Seed)
		if err != nil {
			return err
		}
	} else {
		shards = []*shard.Shard{nil} // single unfiltered round
	}
	c.shards = shards

	err := c.stage(metrics.StageCPBGP, c.runBGPShards)
	if err != nil {
		return err
	}
	c.cpDone = true
	return nil
}

// runBGPShards is the body of the cp-bgp stage: the shard loop with
// runtime dependency merges (§7). A full run treats every shard as dirty.
func (c *Controller) runBGPShards() error {
	dirty := make([]bool, len(c.shards))
	for i := range dirty {
		dirty[i] = true
	}
	_, err := c.runDirtyShards(dirty)
	return err
}

// runDirtyShards executes exactly the shards marked dirty (with §7 runtime
// dependency merges — a merged-in shard is recomputed as part of the merged
// whole) and returns the shard ids that actually ran, in execution order (a
// §7 merge recompute repeats the absorbing shard's id). Clean shards keep
// their resident per-prefix results: every shard round is cold and
// self-contained, so results accumulate per prefix and skipping a shard
// whose prefixes are untouched is sound.
func (c *Controller) runDirtyShards(dirty []bool) ([]int, error) {
	shards := c.shards
	var runs []int
	var globalPrefixes []route.Prefix
	if len(shards) > 1 {
		globalPrefixes = shard.CollectBGPPrefixes(c.snap)
	}
	skipped := make([]bool, len(shards))
	for i := 0; i < len(shards); i++ {
		if skipped[i] || !dirty[i] {
			continue
		}
		reports, err := c.runShard(i, shards[i])
		if err != nil {
			return runs, err
		}
		runs = append(runs, i)
		if len(shards) <= 1 || shards[i] == nil {
			continue
		}
		// Runtime dependency detection (§7): a condition consulted
		// during this round may reference prefixes living in other
		// shards — merge those shards into this one and recompute.
		missing := c.unforeseenDeps(reports, shards[i], globalPrefixes)
		if len(missing) == 0 {
			continue
		}
		merged := shards[i]
		mergedAny := false
		for j := range shards {
			if j == i || skipped[j] || shards[j] == nil {
				continue
			}
			if containsAny(shards[j], missing) {
				merged = shard.Merge(merged, shards[j])
				skipped[j] = true
				mergedAny = true
				c.shardMerge = append(c.shardMerge,
					fmt.Sprintf("shard %d merged into shard %d (unforeseen conditional dependency)", j, i))
				c.log.LogAttrs(context.Background(), slog.LevelWarn, "shard merged on unforeseen dependency",
					slog.Int("shard", j), slog.Int("into", i))
			}
		}
		if mergedAny {
			shards[i] = merged
			i-- // recompute the merged shard in place
		}
	}
	return runs, nil
}

// converge runs one protocol's pull-model fixed point (Algorithm 1) on every
// worker: a gather phase, then an apply phase, until no node changes.
func (c *Controller) converge(protocol string, shardIdx int,
	gather func(sidecar.WorkerAPI) error, apply func(sidecar.WorkerAPI) (sidecar.ApplyReply, error)) error {
	for round := 0; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("core: %s shard %d did not converge in %d rounds (the network may oscillate, §7)",
				protocol, shardIdx, maxRounds)
		}
		endRound := c.startSpan("round", obs.Int("round", round))
		if _, err := c.eachRound(nil, func(_ int, w sidecar.WorkerAPI) (bool, error) { return false, gather(w) }); err != nil {
			endRound()
			return err
		}
		changed, err := c.applyRound(protocol, shardIdx, round, apply)
		endRound()
		if err != nil {
			return err
		}
		c.cpRounds++
		if !changed {
			return nil
		}
	}
}

// runShard executes one full shard round (reset, fixed point, harvest) and
// returns the workers' condition reports.
func (c *Controller) runShard(i int, sh *shard.Shard) (reports []sidecar.ConditionReport, err error) {
	req := sidecar.BeginShardRequest{Index: i}
	if sh != nil {
		req.Prefixes = sh.Prefixes
	}
	endShard := c.startSpan("shard", obs.Int("shard", i), obs.Int("prefixes", len(req.Prefixes)))
	defer endShard()
	if err := c.each(nil, func(_ int, w sidecar.WorkerAPI) error { return w.BeginShard(req) }); err != nil {
		return nil, err
	}
	if err := c.converge("bgp", i, sidecar.WorkerAPI.GatherBGP, sidecar.WorkerAPI.ApplyBGP); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	if _, err := c.eachRound(nil, func(_ int, w sidecar.WorkerAPI) (bool, error) {
		reply, err := w.EndShard()
		if err != nil {
			return false, err
		}
		mu.Lock()
		reports = append(reports, reply.Conditions...)
		mu.Unlock()
		return false, nil
	}); err != nil {
		return nil, err
	}
	// Piggyback a span harvest on the shard boundary: the workers just
	// finished EndShard, so their export rings hold the whole shard round.
	c.harvestAll()
	return reports, nil
}

// unforeseenDeps returns prefixes referenced by this round's conditional
// advertisements that live outside the current shard.
func (c *Controller) unforeseenDeps(reports []sidecar.ConditionReport, cur *shard.Shard, global []route.Prefix) []route.Prefix {
	seen := map[route.Prefix]bool{}
	var out []route.Prefix
	for _, rep := range reports {
		dev := c.snap.Devices[rep.Device]
		if dev == nil {
			continue
		}
		pl := dev.PrefixLists[rep.PrefixList]
		if pl == nil {
			continue
		}
		for _, p := range global {
			if !seen[p] && pl.Permits(p) && !cur.Contains(p) {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

func containsAny(sh *shard.Shard, prefixes []route.Prefix) bool {
	for _, p := range prefixes {
		if sh.Contains(p) {
			return true
		}
	}
	return false
}

// ShardMergeLog describes runtime shard merges performed during the last
// control plane run (§7's recovery path for unforeseen dependencies).
func (c *Controller) ShardMergeLog() []string {
	return append([]string(nil), c.shardMerge...)
}

// ComputeDataPlane has every worker build FIBs and port predicates (the
// first DPO stage, §3.3). FIB resolution problems are returned as warnings.
func (c *Controller) ComputeDataPlane() ([]string, error) {
	c.dpWanted = true
	var sum dpSummary
	err := c.recoverable(func() error {
		var err error
		sum, err = c.computeDataPlane()
		return err
	})
	return sum.warnings, err
}

// dpSummary is what one data-plane compute did across the fleet: the FIB
// resolution warnings of the entries it (re)resolved, how many nodes were
// compiled from scratch, and how many changed prefixes were patched into
// resident predicates (summed over nodes).
type dpSummary struct {
	warnings        []string
	recompiledNodes int
	patchedPrefixes int
}

func (c *Controller) computeDataPlane() (dpSummary, error) {
	var sum dpSummary
	if c.cpWanted && !c.cpDone {
		if err := c.runControlPlane(); err != nil {
			return sum, err
		}
	}
	var mu sync.Mutex
	err := c.stage(metrics.StageDPCompute, func() error {
		_, err := c.eachRound(nil, func(_ int, w sidecar.WorkerAPI) (bool, error) {
			reply, err := w.ComputeDP()
			if err != nil {
				return false, err
			}
			mu.Lock()
			sum.warnings = append(sum.warnings, reply.Errors...)
			sum.recompiledNodes += reply.RecompiledNodes
			sum.patchedPrefixes += reply.PatchedPrefixes
			mu.Unlock()
			return false, nil
		})
		return err
	})
	if err != nil {
		return dpSummary{}, err
	}
	c.dpDone = true
	c.bumpEpoch()
	c.harvestAll()
	sort.Strings(sum.warnings)
	if c.reg != nil {
		c.reg.Counter(MetricDPRecompiled, "Nodes whose data plane was compiled from scratch.").
			Add(float64(sum.recompiledNodes))
		c.reg.Counter(MetricDPPatched, "Changed prefixes patched into resident node predicates.").
			Add(float64(sum.patchedPrefixes))
	}
	return sum, nil
}

// bumpEpoch advances the verified-state epoch and publishes it as a gauge.
func (c *Controller) bumpEpoch() {
	e := c.epoch.Add(1)
	c.epochAt.Store(time.Now().UnixNano())
	c.purgeQueryCache()
	if c.reg != nil {
		c.reg.Gauge(MetricEpoch, "Verified-state epoch (advances per completed verification).").
			Set(float64(e))
	}
	c.log.LogAttrs(context.Background(), slog.LevelDebug, "epoch advanced", slog.Uint64("epoch", e))
}

// OwnedPrefixes returns the prefixes a node originates (its BGP network
// statements) — the paper's notion of the node "holding" a destination
// prefix.
func (c *Controller) OwnedPrefixes(node string) []route.Prefix {
	return ownedPrefixes(c.snap.Devices[node])
}

// ownedPrefixes is OwnedPrefixes for a device model (nil: none). The
// controller and the workers, which constrain injected sources by it,
// read it from the same configuration.
func ownedPrefixes(dev *config.Device) []route.Prefix {
	if dev == nil || dev.BGP == nil {
		return nil
	}
	return dev.BGP.Networks
}

// PrefixOwners lists nodes that originate at least one prefix, sorted.
func (c *Controller) PrefixOwners() []string {
	var out []string
	for _, name := range c.snap.DeviceNames() {
		if len(c.OwnedPrefixes(name)) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// RunQuery executes one property query (§4.4): have the workers inject the
// header space at every source, orchestrate wavefront rounds across
// workers until all packets reach final states or the TTL expires, then
// aggregate outcomes into a Collector on the controller's engine.
//
// When constrainSrc is true, each source's injected packet is additionally
// constrained to carry a source address from that node's owned prefixes,
// which lets a single traversal serve per-source attribution (all-pair
// checks); sources without owned prefixes are injected unconstrained.
func (c *Controller) RunQuery(q *dataplane.Query, constrainSrc bool) (*dataplane.Collector, error) {
	cols, err := c.RunQueryBatch([]*dataplane.Query{q}, constrainSrc)
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// RunQueryBatch executes up to N batch-compatible queries (§ query plane)
// in ONE symbolic pass: one BeginQueryBatch per worker carries every
// query, each worker injects every query's header-space predicate at the
// sources it hosts, tagged with its batch index, and the shared
// wavefront rounds advance all of them together. Per-query outcomes are
// split apart at harvest, so each returned Collector is byte-identical to
// the one a solo RunQuery of that query would have produced (tags keep the
// packets in distinct wavefront slots; canonical BDD serialization makes
// the per-query harvests independent of their co-travellers).
func (c *Controller) RunQueryBatch(qs []*dataplane.Query, constrainSrc bool) ([]*dataplane.Collector, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("core: controller is closed")
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("core: empty query batch")
	}
	for i, q := range qs {
		if err := q.Validate(c.layout); err != nil {
			return nil, err
		}
		if i > 0 && !dataplane.BatchCompatible(qs[0], q) {
			return nil, fmt.Errorf("core: query %d is not batch-compatible with query 0", i)
		}
	}
	var cols []*dataplane.Collector
	err := c.recoverable(func() error {
		var err error
		cols, err = c.runQueryBatch(qs, constrainSrc)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// runQueryBatch is one attempt; recovery re-runs it whole so fresh
// Collectors never mix outcomes from a failed attempt.
func (c *Controller) runQueryBatch(qs []*dataplane.Query, constrainSrc bool) ([]*dataplane.Collector, error) {
	if c.dpWanted && !c.dpDone {
		if _, err := c.computeDataPlane(); err != nil {
			return nil, err
		}
	}
	sources := make([][]string, len(qs))
	for i, q := range qs {
		sources[i] = q.Sources
		if len(sources[i]) == 0 {
			sources[i] = c.PrefixOwners()
		}
		for _, src := range sources[i] {
			if _, ok := c.assignment.Of[src]; !ok {
				return nil, fmt.Errorf("core: unknown source node %q", src)
			}
		}
	}
	cols := make([]*dataplane.Collector, len(qs))
	for i, q := range qs {
		cols[i] = dataplane.NewCollector(c.engine, q)
	}
	err := c.stage(metrics.StageDPForward, func() error { return c.forwardQueryBatch(qs, sources, constrainSrc, cols) })
	if err != nil {
		return nil, err
	}
	c.harvestAll()
	return cols, nil
}

// forwardQueryBatch is the body of the dp-forward stage: arm the workers,
// which inject every query's predicate at the sources they host (tagged by
// batch index when there is more than one query), run wavefront rounds to
// quiescence, then split the harvest back into per-query outcome streams.
func (c *Controller) forwardQueryBatch(qs []*dataplane.Query, sources [][]string, constrainSrc bool, cols []*dataplane.Collector) error {
	// Intent-based slicing: only the workers owning nodes the sources can
	// possibly reach within the hop budget take part in the pass. nil means
	// every worker (nothing to prune).
	ids, err := c.sliceWorkers(sources, qs[0].EffectiveMaxHops())
	if err != nil {
		return err
	}

	// Each worker compiles the header spaces and injects at the sources
	// it hosts (BeginQueryBatch), so the request carries the resolved
	// source lists.
	reqQs := make([]dataplane.Query, len(qs))
	for i, q := range qs {
		reqQs[i] = *q
		reqQs[i].Sources = sources[i]
	}
	if err := c.each(ids, func(_ int, w sidecar.WorkerAPI) error {
		return w.BeginQueryBatch(sidecar.QueryBatchRequest{Queries: reqQs, ConstrainSrc: constrainSrc})
	}); err != nil {
		return err
	}
	c.observeQueryPass(len(qs), ids)

	for hop := 0; hop <= qs[0].EffectiveMaxHops(); hop++ {
		endHop := c.startSpan("hop", obs.Int("hop", hop))
		if _, err := c.eachRound(ids, func(_ int, w sidecar.WorkerAPI) (bool, error) { return false, w.DPRound() }); err != nil {
			endHop()
			return err
		}
		c.dpRounds++
		c.pmu.Lock()
		c.prog.Round = hop
		c.pmu.Unlock()
		busy, _, _, err := c.eachIDs(ids, func(_ int, w sidecar.WorkerAPI) (bool, error) { return w.HasWork() })
		endHop()
		if err != nil {
			return err
		}
		if !busy {
			break
		}
	}

	var mu sync.Mutex
	batches := map[int]sidecar.OutcomeBatch{}
	if err := c.each(ids, func(id int, w sidecar.WorkerAPI) error {
		batch, err := w.FinishQuery()
		if err != nil {
			return err
		}
		mu.Lock()
		batches[id] = batch
		mu.Unlock()
		return nil
	}); err != nil {
		return err
	}
	// Decode per worker (set-encoded harvests materialize their shared
	// substrate once), then absorb per query in a global deterministic
	// order. With more than one query in flight each outcome's source
	// carries its query tag: split on it, strip it, and route the outcome
	// to its own collector.
	workerIDs := make([]int, 0, len(batches))
	for id := range batches {
		workerIDs = append(workerIDs, id)
	}
	sort.Ints(workerIDs)
	perQuery := make([][]dataplane.Outcome, len(qs))
	route := func(workerID int, o dataplane.Outcome) error {
		qi := 0
		if len(qs) > 1 {
			idx, rest, ok := dataplane.SplitQueryTag(o.Source)
			if !ok || idx >= len(qs) {
				return fmt.Errorf("core: harvest from worker %d: outcome source %q carries no valid query tag", workerID, o.Source)
			}
			qi, o.Source = idx, rest
		}
		perQuery[qi] = append(perQuery[qi], o)
		return nil
	}
	for _, id := range workerIDs {
		batch := batches[id]
		outs, err := dataplane.DecodeOutcomes(c.engine, batch.Wire, batch.Outcomes)
		if err != nil {
			return fmt.Errorf("core: harvest from worker %d: %w", id, err)
		}
		for _, o := range outs {
			if err := route(id, o); err != nil {
				return err
			}
		}
	}
	for qi := range qs {
		all := perQuery[qi]
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].Node != all[j].Node {
				return all[i].Node < all[j].Node
			}
			return all[i].Source < all[j].Source
		})
		for _, o := range all {
			if err := cols[qi].Add(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// sliceWorkers computes the worker subset a pass must involve: breadth-
// first search over the topology adjacencies from every effective source,
// bounded by maxHops+1 edges — a packet advances one adjacency per
// wavefront round and the hop loop runs maxHops+1 rounds, so nodes beyond
// that horizon can never hold a packet of this pass. Returns nil (= all
// workers) when nothing can be pruned.
func (c *Controller) sliceWorkers(sources [][]string, maxHops int) ([]int, error) {
	c.wmu.RLock()
	n := len(c.workers)
	c.wmu.RUnlock()
	if n <= 1 {
		return nil, nil
	}
	seen := map[string]int{}
	var frontier []string
	for _, srcs := range sources {
		for _, s := range srcs {
			if _, ok := seen[s]; !ok {
				seen[s] = 0
				frontier = append(frontier, s)
			}
		}
	}
	for depth := 0; depth <= maxHops && len(frontier) > 0; depth++ {
		var next []string
		for _, node := range frontier {
			for _, adj := range c.net.Adjacencies[node] {
				if _, ok := seen[adj.Neighbor]; !ok {
					seen[adj.Neighbor] = depth + 1
					next = append(next, adj.Neighbor)
				}
			}
		}
		frontier = next
	}
	inSlice := make([]bool, n)
	for node := range seen {
		if id, ok := c.assignment.Of[node]; ok && id >= 0 && id < n {
			inSlice[id] = true
		}
	}
	var ids []int
	for id, in := range inSlice {
		if in {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 || len(ids) == n {
		return nil, nil
	}
	return ids, nil
}

// AllPairsResult reports the all-pair reachability check (the paper's
// default property, §5.2).
type AllPairsResult struct {
	Collector *dataplane.Collector
	// Unreached lists destinations with missing (source, destination
	// address) coverage.
	Unreached []string
	// Violations are the generic §4.4 checks (loops, blackholes,
	// multipath consistency).
	Violations []dataplane.Violation
	Sources    int
	Dests      int
	// Epoch is the verified-state epoch the traversal ran against.
	Epoch uint64
}

// CheckAllPairs runs all-pair reachability in one symbolic traversal:
// every prefix owner injects packets destined to the union of all owned
// prefixes, with source addresses constrained per owner; a destination is
// fully reached when its arrive-set covers every (source, destination
// address) combination.
func (c *Controller) CheckAllPairs() (*AllPairsResult, error) {
	owners := c.PrefixOwners()
	if len(owners) == 0 {
		return nil, fmt.Errorf("core: no prefix owners to check")
	}
	// Traffic is scoped to owned destinations: packets to unowned space
	// are out of the all-pair property (they would trivially blackhole).
	var allOwned []route.Prefix
	for _, o := range owners {
		allOwned = append(allOwned, c.OwnedPrefixes(o)...)
	}
	q := &dataplane.Query{
		Header:  &dataplane.HeaderSpace{DstIn: allOwned},
		Sources: owners,
		Dests:   owners,
	}
	col, epoch, err := c.SubmitQuery(q, true)
	if err != nil {
		return nil, err
	}
	res := &AllPairsResult{Collector: col, Sources: len(owners), Dests: len(owners), Epoch: epoch}
	srcUnion, err := dataplane.PrefixSetMatch(c.engine, dataplane.OffSrcIP, allOwned)
	if err != nil {
		return nil, err
	}
	for _, d := range owners {
		dstSet, err := dataplane.PrefixSetMatch(c.engine, dataplane.OffDstIP, c.OwnedPrefixes(d))
		if err != nil {
			return nil, err
		}
		expected, err := c.engine.And(dstSet, srcUnion)
		if err != nil {
			return nil, err
		}
		covered, err := c.engine.Implies(expected, col.Arrived(d))
		if err != nil {
			return nil, err
		}
		if !covered {
			res.Unreached = append(res.Unreached, d)
		}
	}
	res.Violations, err = col.Report()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// CollectRIBs merges the per-worker RIBs (requires Options.KeepRIBs).
func (c *Controller) CollectRIBs() (map[string]*route.RIB, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("core: controller is closed")
	}
	var out map[string]*route.RIB
	err := c.recoverable(func() error {
		var err error
		out, err = c.collectRIBs()
		return err
	})
	return out, err
}

func (c *Controller) collectRIBs() (map[string]*route.RIB, error) {
	if c.cpWanted && !c.cpDone {
		if err := c.runControlPlane(); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	out := map[string]*route.RIB{}
	err := c.each(nil, func(_ int, w sidecar.WorkerAPI) error {
		routes, err := w.CollectRIBs()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for node, rs := range routes {
			rib := route.NewRIB()
			byPrefix := map[route.Prefix][]*route.Route{}
			for _, r := range rs {
				byPrefix[r.Prefix] = append(byPrefix[r.Prefix], r)
			}
			for p, set := range byPrefix {
				rib.SetRoutes(p, set)
			}
			out[node] = rib
		}
		return nil
	})
	return out, err
}

// Stats gathers every worker's resource accounting.
func (c *Controller) Stats() ([]sidecar.WorkerStats, error) {
	c.wmu.RLock()
	n := len(c.workers)
	c.wmu.RUnlock()
	stats := make([]sidecar.WorkerStats, n)
	err := c.each(nil, func(i int, w sidecar.WorkerAPI) error {
		st, err := w.Stats()
		stats[i] = st
		return err
	})
	return stats, err
}

// MaxPeakBytes returns the highest per-worker modelled peak (the paper's
// "per-worker peak memory usage", §5.2).
func MaxPeakBytes(stats []sidecar.WorkerStats) int64 {
	var max int64
	for _, s := range stats {
		if s.PeakBytes > max {
			max = s.PeakBytes
		}
	}
	return max
}

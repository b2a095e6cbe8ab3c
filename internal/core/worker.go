// Package core is S2 itself: the distributed configuration verifier. A
// Controller partitions the parsed network into segments, hands each to a
// Worker, and orchestrates distributed control plane simulation (per prefix
// shard) followed by distributed data plane verification (§3).
//
// Workers implement sidecar.WorkerAPI, so the same controller drives
// in-process workers (goroutines with isolated state — the default) and
// remote workers (separate OS processes serving the sidecar RPC protocol,
// started with cmd/s2worker).
package core

import (
	"context"
	"encoding/gob"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s2/internal/bdd"
	"s2/internal/bgp"
	"s2/internal/config"
	"s2/internal/dataplane"
	"s2/internal/fault"
	"s2/internal/metrics"
	"s2/internal/obs"
	"s2/internal/ospf"
	"s2/internal/route"
	"s2/internal/sidecar"
	"s2/internal/sim"
	"s2/internal/topology"
)

// Worker hosts one segment of the network: real nodes for its own switches
// and shadow relays for everyone else's. All heavy state — RIBs, the BDD
// engine, compiled data planes — is private to the worker.
type Worker struct {
	id         int
	assignment map[string]int
	peers      []sidecar.WorkerAPI
	tracker    *metrics.Tracker
	layout     dataplane.Layout
	maxBDD     int
	spillDir   string
	keepRIBs   bool

	// dialedPeers are the RPC clients this worker opened itself (remote
	// mode); a re-Setup closes them before redialing the new directory.
	dialedPeers []*sidecar.RemoteWorker

	// phaseMu serializes the controller-phase methods (Setup, shard and
	// query rounds). The controller normally issues them one at a time, but
	// a retried idempotent RPC can race its own timed-out first attempt, and
	// recovery can re-Setup while a stale phase call is still draining.
	// Peer-facing methods (Pull*, DeliverBatch) and probes (Ping, HasWork,
	// Stats) do NOT take it: a phase holding phaseMu calls into peers, so
	// gating those would deadlock two workers against each other.
	phaseMu sync.Mutex

	// procs bounds intra-phase parallelism: the per-node loops of the
	// gather/apply/compute/forward phases run on up to procs goroutines.
	// procs 1 runs the same chunked bodies inline on the phase goroutine,
	// with identical results. SetupRequest.Parallelism sets it.
	procs int
	// sendSessions is the sender half of the per-peer wire delta protocol
	// (see wire.go), touched only by the phase goroutine; recvTables is the
	// receiver half (map and accept cursors guarded by qmu, materialized
	// refs touched only by the phase goroutine); wireInbox parks accepted
	// batch deliveries until the next drain (guarded by qmu).
	sendSessions map[int]*bdd.WireSession
	recvTables   map[int]*bdd.WireTable
	wireInbox    []wireDelivery

	devices     map[string]*config.Device
	adjacencies map[string][]topology.Adjacency
	sessions    map[string][]topology.BGPSession
	localNames  []string // sorted local device names

	// Control plane.
	bgpProcs    map[string]*bgp.Process
	ospfProcs   map[string]*ospf.Process
	bgpPulls    *sim.PullTracker
	ospfPulls   *sim.PullTracker
	pendingBGP  map[string]map[string][]bgp.Advertisement
	pendingLSAs map[string][]*ospf.LSA
	needsRun    map[string]bool
	shardIndex  int
	// shardPrefixes is the current shard's prefix set (nil = unfiltered);
	// the harvest replaces the accumulated results for exactly these, so a
	// merged-shard recompute (§7) replaces stale entries.
	shardPrefixes []route.Prefix

	// Results accumulated across shards.
	fibRIBs   map[string]*route.RIB // attribute-stripped routes for FIB building
	finalRIBs map[string]*route.RIB // full routes (only when keepRIBs)
	// spills are the pending spill files, one per shard index, in write
	// order (spillShard); drainSpills harvests and deletes them.
	spills []string

	// Data plane. The engine and the compiled nodes stay resident across
	// ComputeDP calls; dpDirty records, per local node, what changed in the
	// inputs of its compile since the last one — recorded where the change
	// happens (EndShard's harvest, ApplyDelta's purge and device swap) — so
	// the next ComputeDP patches just that. A nil engine means nothing is
	// compiled yet and everything is dirty.
	engine   *bdd.Engine
	nodesDP  map[string]*dataplane.NodeDP
	dpDirty  map[string]*dirtyNode
	adjIndex dataplane.AdjacencyIndex
	query    *dataplane.Query
	// dests holds the armed pass's per-query dest sets, indexed by the
	// query's tag index (a pass of one is untagged and uses entry 0). A nil
	// entry means "any delivery counts" for that query.
	dests []map[string]bool

	// qmu guards the cross-RPC mutable state below: peers deliver packets
	// concurrently with the controller's round barrier.
	qmu      sync.Mutex
	queue    map[packetSlot]bdd.Ref
	queueLen int
	outcomes []dataplane.Outcome
	// qround is the wavefront round the next DPRound will process. Peer
	// deliveries stamped for a later round stay parked in wireInbox, so a
	// packet advances exactly one adjacency per round no matter how the
	// concurrently-running workers' deliveries interleave with the drain.
	qround int

	statsPulls   int64
	statsPackets int64
	// vitals mirrors phase-guarded state behind atomics so the PullStats
	// probe (fleet health sampler) never touches phaseMu: writers update
	// it at phase boundaries (Setup, BeginShard, ComputeDP, GC) while
	// holding phaseMu; PullStats reads it lock-free.
	vitals workerVitals
	// pacer schedules BDD collections from measured GCStats (gcpacer.go);
	// gcPauses windows recent pause durations for WorkerStats percentiles.
	pacer    gcPacer
	gcPauses *metrics.DurationQuantiles

	// obs is the worker's observability handle (see observability.go).
	// Infrastructure, not run state: Setup's full reset leaves it alone.
	obs *workerObs
	// log receives the worker's structured logs and writes every record,
	// at any level, into flight first: phase transitions, GC, wire-session
	// resets, and peer RPC faults land there whether or not a logger,
	// tracing, or metrics are wired. Like obs, both survive Setup.
	log    *slog.Logger
	flight *obs.FlightRecorder
}

// spillPayload is one shard round's on-disk result: the shard's prefix
// set plus the attribute-stripped routes per node, grouped by prefix.
type spillPayload struct {
	Prefixes []route.Prefix
	Routes   map[string][]route.Route
}

// dirtyNode is one node's pending data-plane work: the prefixes whose
// resolved routes changed, or the whole node when its forwarding config did.
type dirtyNode struct {
	whole    bool
	prefixes map[route.Prefix]struct{}
}

type packetSlot struct {
	source string
	node   string
	inPort string
}

// sortedSlots returns m's slots in (node, inPort, source) order, the one
// deterministic order in which a round forwards them and FinishQuery
// records its loops.
func sortedSlots(m map[packetSlot]bdd.Ref) []packetSlot {
	slots := make([]packetSlot, 0, len(m))
	for s := range m {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.inPort != b.inPort {
			return a.inPort < b.inPort
		}
		return a.source < b.source
	})
	return slots
}

// dpChunkPerProc is how many slots per pool goroutine DPRound forwards
// between two chunk boundaries. The boundaries are the only safe points for
// the mid-round adaptive GC: the collector is stop-the-world and cannot run
// under the pool, but heavy rounds still need their garbage bounded before
// the round ends.
const dpChunkPerProc = 64

// NewWorker creates an unconfigured worker; Setup must be called before
// any phase method.
func NewWorker() *Worker {
	flight := obs.NewFlightRecorder()
	return &Worker{flight: flight, log: flight.Logger(nil)}
}

// FlightRecorder exposes the worker's always-on flight recorder (SIGQUIT
// dumps, /debug/flightrecorder, and the controller's eviction capture).
func (w *Worker) FlightRecorder() *obs.FlightRecorder { return w.flight }

// SetPeers wires the in-process peer directory (the controller calls this
// for local transports; remote workers dial PeerAddrs during Setup).
func (w *Worker) SetPeers(peers []sidecar.WorkerAPI) { w.peers = peers }

// SetLogger passes the worker's records on to l after its flight recorder
// (nil: to the recorder only). Like the obs handle it is infrastructure:
// Setup's full reset leaves it alone, so recovery re-Setups keep their
// logging.
func (w *Worker) SetLogger(l *slog.Logger) { w.log = w.flight.Logger(l) }

// Ping implements sidecar.WorkerAPI: the liveness probe. It deliberately
// avoids phaseMu — a worker busy in a long phase is alive, not dead.
func (w *Worker) Ping() error { return nil }

// Setup implements sidecar.WorkerAPI. It fully resets the worker: recovery
// re-partitions segments onto survivors and re-runs Setup on workers that
// already hold state from the failed attempt.
func (w *Worker) Setup(req sidecar.SetupRequest) error {
	if req.ProtocolVersion != sidecar.ProtocolVersion {
		return fault.FatalErr("Setup", fmt.Errorf(
			"core: worker %d speaks sidecar protocol version %d, controller sent %d",
			req.WorkerID, sidecar.ProtocolVersion, req.ProtocolVersion))
	}
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	// Claim this worker's disjoint span-id range before minting the setup
	// span: w.id is not assigned until later in Setup, and ids minted from
	// the counter's initial value would collide with the controller's when
	// the harvested spans merge (obsSetupDone re-asserts the base, which is
	// then a no-op). SetWorker pins the pid lane for the same reason.
	if w.obs != nil && w.obs.tracer != nil && w.obs.tracer.Exporting() {
		w.obs.tracer.EnsureIDBase(uint64(req.WorkerID+1) << 40)
	}
	span := w.obsWorkerSpan("setup").SetWorker(req.WorkerID)
	defer span.End()
	w.log.LogAttrs(context.Background(), slog.LevelDebug, "setup", obs.Kind("phase"), slog.Int("worker", req.WorkerID),
		slog.Int("configs", len(req.Configs)), slog.Int("peers", len(req.PeerAddrs)))

	// Drop every remnant of a previous Setup.
	for _, c := range w.dialedPeers {
		c.Close()
	}
	w.dialedPeers = nil
	if len(req.PeerAddrs) > 0 {
		w.peers = nil // force a redial against the new directory
	}
	w.pendingBGP, w.pendingLSAs = nil, nil
	w.needsRun = nil
	w.shardIndex, w.shardPrefixes = 0, nil
	for _, p := range w.spills {
		os.Remove(p)
	}
	w.spills = nil
	w.engine, w.nodesDP, w.query, w.dests = nil, nil, nil, nil
	w.dpDirty = map[string]*dirtyNode{}
	w.pacer = newGCPacer(req.GCStress, req.MemoryBudget > 0)
	w.gcPauses = metrics.NewDurationQuantiles()
	w.qmu.Lock()
	w.queue, w.queueLen, w.outcomes = nil, 0, nil
	w.qround = 0
	w.wireInbox, w.recvTables = nil, map[int]*bdd.WireTable{}
	w.statsPulls, w.statsPackets = 0, 0
	w.qmu.Unlock()
	w.sendSessions = map[int]*bdd.WireSession{}

	w.id = req.WorkerID
	w.vitals.reset(req.WorkerID)
	w.assignment = req.Assignment
	w.layout = dataplane.Layout{MetaBits: req.MetaBits}
	w.maxBDD = req.MaxBDDNodes
	w.spillDir = req.SpillDir
	w.keepRIBs = req.KeepRIBs
	w.tracker = metrics.NewTracker(fmt.Sprintf("worker%d", req.WorkerID), req.MemoryBudget)
	w.adjacencies = req.Adjacencies
	w.sessions = req.Sessions
	w.procs = max(req.Parallelism, 1)

	snap, err := config.ParseTexts(req.Configs)
	if err != nil {
		return fmt.Errorf("core: worker %d parsing configs: %w", w.id, err)
	}
	w.devices = snap.Devices
	w.localNames = snap.DeviceNames()

	// Dial peers when running as a separate process, wrapping each client
	// with the fault policy so peer pulls and packet deliveries get the
	// same deadlines/retries as controller calls.
	if len(req.PeerAddrs) > 0 {
		policy := fault.Policy{Timeout: req.RPCTimeout, Retries: req.RPCRetries}
		var caller *fault.Caller
		if policy.Timeout > 0 || policy.Retries > 0 {
			caller = fault.NewCaller(policy, nil)
			caller.SetNotify(func(event, method string, err error) {
				w.log.LogAttrs(context.Background(), slog.LevelDebug, "peer rpc fault", obs.Kind("rpc"),
					slog.String("event", event), slog.String("method", method), slog.Any("error", err))
			})
		}
		w.peers = make([]sidecar.WorkerAPI, len(req.PeerAddrs))
		for i, addr := range req.PeerAddrs {
			if i == w.id || addr == "" {
				continue
			}
			client, err := sidecar.DialTimeout(addr, policy.Timeout)
			if err != nil {
				return fmt.Errorf("core: worker %d dialing peer %d: %w", w.id, i, err)
			}
			// Peer-bound requests carry the phase span they were issued
			// from, so harvested traces attribute peer traffic to phases.
			if w.obs != nil && w.obs.tracer != nil {
				client.SetTraceSource(w.obs.curTC)
			}
			w.peers[i] = client
			if caller != nil {
				w.peers[i] = fault.Wrap(client, caller)
			}
			w.dialedPeers = append(w.dialedPeers, client)
		}
	}

	w.bgpProcs = map[string]*bgp.Process{}
	w.ospfProcs = map[string]*ospf.Process{}
	for name, dev := range w.devices {
		if dev.BGP != nil {
			w.bgpProcs[name] = bgp.NewProcess(dev, w.sessions[name], w.tracker)
		}
		if dev.OSPF != nil {
			w.ospfProcs[name] = ospf.NewProcess(dev, w.adjacencies[name], w.tracker)
		}
	}
	w.bgpPulls = sim.NewPullTracker()
	w.ospfPulls = sim.NewPullTracker()
	w.fibRIBs = map[string]*route.RIB{}
	w.finalRIBs = map[string]*route.RIB{}
	for name := range w.devices {
		w.fibRIBs[name] = route.NewRIB()
		if w.keepRIBs {
			w.finalRIBs[name] = route.NewRIB()
		}
	}
	w.adjIndex = dataplane.AdjacencyIndex{}
	for dev, adjs := range w.adjacencies {
		m := map[string]dataplane.PortDest{}
		for _, a := range adjs {
			m[a.LocalIfc] = dataplane.PortDest{Node: a.Neighbor, Port: a.RemoteIfc}
		}
		w.adjIndex[dev] = m
	}
	w.obsSetupDone()
	w.log.LogAttrs(context.Background(), slog.LevelInfo, "worker setup", slog.Int("worker", w.id),
		slog.Int("devices", len(w.localNames)), slog.Int("procs", w.procs))
	return nil
}

// PullBGPBatch implements sidecar.WorkerAPI: it serves one peer's shadow-
// node pulls for a whole gather phase in a single round trip (Algorithm 1,
// line 15 arriving at the real node); replies align with reqs by index.
func (w *Worker) PullBGPBatch(reqs []sidecar.PullRequest) ([]sidecar.PullReply[bgp.Advertisement], error) {
	return servePulls(w, w.bgpProcs, reqs)
}

// PullLSABatch implements sidecar.WorkerAPI (the OSPF analogue of
// PullBGPBatch).
func (w *Worker) PullLSABatch(reqs []sidecar.PullRequest) ([]sidecar.PullReply[*ospf.LSA], error) {
	return servePulls(w, w.ospfProcs, reqs)
}

// servePulls answers a batch of pulls from procs. An exporter this worker
// hosts but that runs no process of the protocol — a non-OSPF neighbor of
// an OSPF interface — has nothing to export and gets an empty, non-fresh
// reply, as a local pull would skip it; an exporter hosted elsewhere is an
// error. statsPulls counts logical pulls, not RPCs.
func servePulls[T any, P exporter[T]](w *Worker, procs map[string]P, reqs []sidecar.PullRequest) ([]sidecar.PullReply[T], error) {
	replies := make([]sidecar.PullReply[T], len(reqs))
	for i, q := range reqs {
		proc, ok := procs[q.Exporter]
		if !ok {
			if w.devices[q.Exporter] == nil {
				return nil, fmt.Errorf("core: worker %d does not host %q", w.id, q.Exporter)
			}
			continue
		}
		r := &replies[i]
		r.Items, r.Version, r.Fresh = proc.ExportsTo(q.Puller, q.Since, q.Seen)
	}
	w.countPulls(len(reqs))
	return replies, nil
}

func (w *Worker) countPulls(n int) {
	w.qmu.Lock()
	w.statsPulls += int64(n)
	w.qmu.Unlock()
}

// BeginShard implements sidecar.WorkerAPI: reset BGP state for the shard's
// prefix filter and wire OSPF redistribution.
func (w *Worker) BeginShard(req sidecar.BeginShardRequest) error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	w.obsBeginShard(req.Index, len(req.Prefixes))
	w.log.LogAttrs(context.Background(), slog.LevelDebug, "begin-shard", obs.Kind("phase"),
		slog.Int("shard", req.Index), slog.Int("prefixes", len(req.Prefixes)))
	w.shardIndex = req.Index
	w.vitals.shard.Store(int64(req.Index))
	w.shardPrefixes = req.Prefixes
	var filter bgp.PrefixFilter
	if len(req.Prefixes) > 0 {
		set := make(map[route.Prefix]bool, len(req.Prefixes))
		for _, p := range req.Prefixes {
			set[p] = true
		}
		filter = func(p route.Prefix) bool { return set[p] }
	}
	w.bgpPulls.Reset()
	w.pendingBGP = nil
	w.needsRun = map[string]bool{}
	for name, proc := range w.bgpProcs {
		proc.ResetForShard(filter)
		if op, ok := w.ospfProcs[name]; ok {
			proc.SetExternalRoutes("ospf", op.Routes().All())
		}
		w.needsRun[name] = true
	}
	return nil
}

// exporter is what a node's protocol process offers its neighbors' pulls,
// identical for BGP (advertisements) and OSPF (LSAs): the neighbors it
// pulls from, and its exports to one puller since that puller's cursor.
type exporter[T any] interface {
	NeighborNames() []string
	ExportsTo(puller string, since uint64, seen bool) ([]T, uint64, bool)
}

// pullSlot is one (node, neighbor) pull's result, filled either directly
// (local exporters) or by a batched round trip. A nil st means the pull was
// skipped (no exporter).
type pullSlot[T any] struct {
	st    *sim.PullState
	ver   uint64
	fresh bool
	items []T
}

// batchRef addresses a pullSlot awaiting a batched reply.
type batchRef struct{ i, j int }

// GatherBGP implements sidecar.WorkerAPI: phase 1 of one round — every
// local node pulls route deltas from all neighbors (real or shadow).
func (w *Worker) GatherBGP() error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("gather-bgp")
	defer span.End()
	pending := map[string]map[string][]bgp.Advertisement{}
	err := gather(w, "bgp", w.bgpProcs, w.bgpPulls, sidecar.WorkerAPI.PullBGPBatch,
		func(name, nb string, advs []bgp.Advertisement) {
			if pending[name] == nil {
				pending[name] = map[string][]bgp.Advertisement{}
			}
			pending[name][nb] = advs
		})
	if err == nil {
		w.pendingBGP = pending
	}
	return err
}

// GatherOSPF implements sidecar.WorkerAPI (phase 1 for LSA flooding). The
// flat per-node LSA list is assembled in neighbor order, which MergeLSAs
// depends on (a later LSA from the same router supersedes an earlier one).
func (w *Worker) GatherOSPF() error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("gather-ospf")
	defer span.End()
	pending := map[string][]*ospf.LSA{}
	err := gather(w, "ospf", w.ospfProcs, w.ospfPulls, sidecar.WorkerAPI.PullLSABatch,
		func(name, _ string, lsas []*ospf.LSA) { pending[name] = append(pending[name], lsas...) })
	if err == nil {
		w.pendingLSAs = pending
	}
	return err
}

// gather is the body of both gather phases. It writes no node state, so all
// workers gather concurrently against the quiesced previous round. Within
// the worker the per-node pulls run on up to procs goroutines, and pulls
// bound for the same remote worker are coalesced into one batch RPC. take
// receives every fresh pull in (node, neighbor) order.
func gather[T any, P exporter[T]](w *Worker, protocol string, procs map[string]P, pulls *sim.PullTracker,
	batchPull func(sidecar.WorkerAPI, []sidecar.PullRequest) ([]sidecar.PullReply[T], error),
	take func(name, nb string, items []T)) error {
	names := w.localNames
	nbLists := make([][]string, len(names))
	slots := make([][]pullSlot[T], len(names))
	var batchMu sync.Mutex
	batch := map[int][]batchRef{}

	// Phase A: per-node pulls. Local exporters resolve inline; remote pulls
	// only record their cursor.
	err := runIndexed(w.procs, len(names), func(i int) error {
		name := names[i]
		proc, ok := procs[name]
		if !ok {
			return nil
		}
		nbs := proc.NeighborNames()
		nbLists[i] = nbs
		ss := make([]pullSlot[T], len(nbs))
		slots[i] = ss
		for j, nb := range nbs {
			owner := w.assignment[nb]
			if owner == w.id {
				p, ok := procs[nb]
				if !ok {
					continue
				}
				st := pulls.Get(name, nb)
				items, ver, fresh := p.ExportsTo(name, st.Version, st.Seen)
				ss[j] = pullSlot[T]{st: st, ver: ver, fresh: fresh, items: items}
				continue
			}
			if w.peers[owner] == nil {
				continue
			}
			ss[j].st = pulls.Get(name, nb)
			batchMu.Lock()
			batch[owner] = append(batch[owner], batchRef{i, j})
			batchMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase B: one round trip per remote owner, concurrently across owners.
	owners := make([]int, 0, len(batch))
	for o := range batch {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	err = runIndexed(w.procs, len(owners), func(oi int) error {
		owner := owners[oi]
		refs := batch[owner]
		reqs := make([]sidecar.PullRequest, len(refs))
		for k, ref := range refs {
			st := slots[ref.i][ref.j].st
			reqs[k] = sidecar.PullRequest{
				Exporter: nbLists[ref.i][ref.j], Puller: names[ref.i],
				Since: st.Version, Seen: st.Seen,
			}
		}
		replies, err := batchPull(w.peers[owner], reqs)
		if err != nil {
			return fmt.Errorf("core: worker %d batch-pulling %d %s exports from worker %d: %w", w.id, len(reqs), protocol, owner, err)
		}
		if len(replies) != len(reqs) {
			return fmt.Errorf("core: worker %d: batch pull from worker %d returned %d replies for %d requests", w.id, owner, len(replies), len(reqs))
		}
		for k, ref := range refs {
			s := &slots[ref.i][ref.j]
			s.ver, s.fresh, s.items = replies[k].Version, replies[k].Fresh, replies[k].Items
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase C: deterministic assembly in (node, neighbor) order — identical
	// to the sequential walk.
	exchanged := 0
	for i, name := range names {
		for j := range slots[i] {
			s := &slots[i][j]
			if s.st == nil || !s.fresh {
				continue
			}
			s.st.Version, s.st.Seen = s.ver, true
			take(name, nbLists[i][j], s.items)
			exchanged += len(s.items)
		}
	}
	w.obsRoutesExchanged(protocol, exchanged)
	return nil
}

// ApplyBGP implements sidecar.WorkerAPI: phase 2 — apply the gathered
// imports and rerun decisions. needsRun is read-only during the node tasks;
// every node ends the phase with it cleared.
func (w *Worker) ApplyBGP() (sidecar.ApplyReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("apply-bgp")
	defer span.End()
	reply, err := applyNodes(w, w.bgpProcs, func(name string, proc *bgp.Process) (bool, int) {
		imported := false
		for nb, advs := range w.pendingBGP[name] {
			if proc.ImportFrom(nb, advs) {
				imported = true
			}
		}
		changed := (w.needsRun[name] || imported) && proc.RunDecision()
		return changed, proc.LocRIB().RouteCount()
	})
	clear(w.needsRun)
	w.pendingBGP = nil
	return reply, err
}

// ApplyOSPF implements sidecar.WorkerAPI (phase 2 for LSA merge + SPF).
func (w *Worker) ApplyOSPF() (sidecar.ApplyReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("apply-ospf")
	defer span.End()
	reply, err := applyNodes(w, w.ospfProcs, func(name string, proc *ospf.Process) (bool, int) {
		changed := proc.MergeLSAs(w.pendingLSAs[name])
		if changed || proc.Routes().Len() == 0 {
			changed = proc.RunSPF() || changed
		}
		return changed, proc.Routes().RouteCount()
	})
	w.pendingLSAs = nil
	return reply, err
}

// applyNodes runs step — one node's apply, which mutates only that node's
// process — for every local node with a process, on the pool, and tallies
// the reply in node order: how many nodes changed and how many routes
// their RIBs hold.
func applyNodes[P any](w *Worker, procs map[string]P, step func(name string, proc P) (changed bool, routes int)) (sidecar.ApplyReply, error) {
	names := w.localNames
	changed := make([]bool, len(names))
	routes := make([]int, len(names))
	_ = runIndexed(w.procs, len(names), func(i int) error { // no task returns an error
		if proc, ok := procs[names[i]]; ok {
			changed[i], routes[i] = step(names[i], proc)
		}
		return nil
	})
	var reply sidecar.ApplyReply
	for i := range names {
		if changed[i] {
			reply.Changed = true
			reply.ChangedNodes++
		}
		reply.Routes += routes[i]
	}
	return reply, w.tracker.CheckBudget()
}

// EndShard implements sidecar.WorkerAPI: free the shard's full-attribute
// RIBs and harvest its routes into the FIB-building state. In spill mode the
// harvest is deferred: the shard's stripped routes go to disk and the next
// ComputeDP (or ApplyDelta) drains them through the same harvest.
func (w *Worker) EndShard() (sidecar.EndShardReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("end-shard")
	defer func() {
		span.End()
		w.obsEndShard()
	}()
	w.log.LogAttrs(context.Background(), slog.LevelDebug, "end-shard", obs.Kind("phase"), slog.Int("shard", w.shardIndex))
	reply := sidecar.EndShardReply{}
	locs := make(map[string]*route.RIB, len(w.bgpProcs))
	for _, name := range w.localNames {
		if w.keepRIBs {
			// A merged-shard recompute (§7) replaces the shard's full
			// routes wholesale, including prefixes it decided NOT to install.
			final := w.finalRIBs[name]
			for _, p := range w.shardPrefixes {
				final.Remove(p)
			}
			if w.shardPrefixes == nil {
				final.Clear()
			}
		}
		proc, ok := w.bgpProcs[name]
		if !ok {
			continue
		}
		for _, list := range proc.UsedConditions() {
			reply.Conditions = append(reply.Conditions, sidecar.ConditionReport{Device: name, PrefixList: list})
		}
		rib := proc.LocRIB()
		reply.Routes += rib.RouteCount()
		if w.keepRIBs {
			rib.Range(func(p route.Prefix, rs []*route.Route) {
				w.finalRIBs[name].SetRoutes(p, rs)
			})
		}
		locs[name] = rib
		// Free the shard's full-attribute state now; the next BeginShard
		// would do it anyway, but the paper's point is that the peak
		// drops when the shard's routes leave memory. The reset swaps in a
		// fresh Loc-RIB, so rib stays intact for the harvest.
		proc.ResetForShard(nil)
	}
	if w.spillDir != "" {
		if err := w.spillShard(locs); err != nil {
			return reply, err
		}
	} else {
		w.harvest(w.shardPrefixes, locs)
	}
	reply.ModelBytes = w.tracker.Current()
	return reply, w.tracker.CheckBudget()
}

// harvest lands one shard round in the FIB-building state — locs[name] is
// node name's Loc-RIB, absent when the node runs no BGP; prefixes is the
// round's prefix set, nil = unfiltered — and re-measures that state's
// modelled footprint. An in-memory EndShard calls it at once; spill mode
// calls it from drainSpills.
func (w *Worker) harvest(prefixes []route.Prefix, locs map[string]*route.RIB) {
	var bytes int64
	for _, name := range w.localNames {
		w.harvestFIB(name, locs[name], prefixes)
		bytes += int64(w.fibRIBs[name].RouteCount()) * route.LiteModelBytes
	}
	w.tracker.Set("fib.accum", bytes)
}

// spillShard writes the shard round's routes, attribute-stripped, to the
// file of its shard index and queues that file last for the next drain. A
// rewritten index (a §7 merged recompute) overwrites its file and moves
// behind every shard it may supersede, so pending files stay bounded by the
// shard count and drain in the order an in-memory run harvests.
func (w *Worker) spillShard(locs map[string]*route.RIB) error {
	payload := spillPayload{Prefixes: w.shardPrefixes, Routes: make(map[string][]route.Route, len(locs))}
	for name, rib := range locs {
		lites := make([]route.Route, 0, rib.RouteCount())
		rib.Range(func(_ route.Prefix, rs []*route.Route) {
			for _, r := range rs {
				lites = append(lites, route.Route{Prefix: r.Prefix, Protocol: r.Protocol, NextHop: r.NextHop, NextHopNode: r.NextHopNode})
			}
		})
		payload.Routes[name] = lites
	}
	path := filepath.Join(w.spillDir, fmt.Sprintf("w%d-shard%d.gob", w.id, w.shardIndex))
	f, err := os.Create(path)
	if err == nil {
		err = gob.NewEncoder(f).Encode(payload)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	w.spills = slices.DeleteFunc(w.spills, func(p string) bool { return p == path })
	if err != nil {
		// A truncated file would fail to decode at drain time.
		os.Remove(path)
		return fmt.Errorf("core: worker %d spilling shard %d: %w", w.id, w.shardIndex, err)
	}
	if st, err := os.Stat(path); err == nil {
		w.obsSpill(st.Size())
	}
	w.spills = append(w.spills, path)
	return nil
}

// drainSpills harvests every pending spill file in write order and deletes
// it. A file's routes come back grouped by prefix, in the order spillShard
// ranged them.
func (w *Worker) drainSpills() error {
	for len(w.spills) > 0 {
		path := w.spills[0]
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("core: worker %d loading spill: %w", w.id, err)
		}
		var payload spillPayload
		err = gob.NewDecoder(f).Decode(&payload)
		f.Close()
		if err != nil {
			return fmt.Errorf("core: worker %d decoding spill: %w", w.id, err)
		}
		locs := make(map[string]*route.RIB, len(payload.Routes))
		var run []*route.Route
		for name, rs := range payload.Routes {
			rib := route.NewRIB()
			for i := range rs {
				run = append(run, &rs[i])
				if i+1 == len(rs) || rs[i+1].Prefix != rs[i].Prefix {
					rib.SetRoutes(rs[i].Prefix, run) // copies run
					run = run[:0]
				}
			}
			locs[name] = rib
		}
		w.harvest(payload.Prefixes, locs)
		w.spills = w.spills[1:]
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("core: worker %d removing drained spill: %w", w.id, err)
		}
	}
	return nil
}

// harvestFIB replaces node name's FIB-building routes for the prefixes of
// the shard round with attribute-stripped copies of the round's Loc-RIB (nil
// = the node runs no BGP). Only prefixes whose forwarding-relevant content
// differs from what is resident are rewritten, and exactly those are marked
// dirty for the next ComputeDP: a re-run shard that converges to the same
// next hops costs the data plane nothing. The copies share one backing array
// sized to the changed routes — the whole shard on a cold run, a handful on
// a delta, so a delta never pins a shard-sized array behind one live route.
func (w *Worker) harvestFIB(name string, loc *route.RIB, prefixes []route.Prefix) {
	fib := w.fibRIBs[name]
	type change struct {
		p  route.Prefix
		rs []*route.Route
	}
	var changed []change
	total := 0
	if loc != nil {
		loc.Range(func(p route.Prefix, rs []*route.Route) {
			if !sameNextHops(fib.Get(p), rs) {
				changed = append(changed, change{p, rs})
				total += len(rs)
			}
		})
	}
	backing := make([]route.Route, total)
	ptrs := make([]*route.Route, total)
	off := 0
	for _, c := range changed {
		lites := ptrs[off : off+len(c.rs) : off+len(c.rs)]
		for i, r := range c.rs {
			backing[off+i] = route.Route{Prefix: r.Prefix, Protocol: r.Protocol, NextHop: r.NextHop, NextHopNode: r.NextHopNode}
			lites[i] = &backing[off+i]
		}
		off += len(c.rs)
		fib.SetRoutes(c.p, lites)
		w.markDirty(name, c.p)
	}
	// Prefixes of this shard the round did not install go away.
	retire := func(p route.Prefix) {
		if (loc == nil || len(loc.Get(p)) == 0) && fib.Remove(p) {
			w.markDirty(name, p)
		}
	}
	if prefixes == nil {
		fib.Range(func(p route.Prefix, _ []*route.Route) { retire(p) })
	}
	for _, p := range prefixes {
		retire(p)
	}
}

// sameNextHops reports whether two route sets for one prefix resolve to the
// same FIB entry: pairwise equal protocol and next hop, in RIB order. Sets
// holding the same routes in a different order compare unequal, which only
// costs a redundant patch.
func sameNextHops(a, b []*route.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Protocol != b[i].Protocol || a[i].NextHop != b[i].NextHop || a[i].NextHopNode != b[i].NextHopNode {
			return false
		}
	}
	return true
}

// dirty returns node name's pending data-plane work, creating the record.
func (w *Worker) dirty(name string) *dirtyNode {
	d := w.dpDirty[name]
	if d == nil {
		d = &dirtyNode{prefixes: map[route.Prefix]struct{}{}}
		w.dpDirty[name] = d
	}
	return d
}

// markDirty records that node name's resolved routes for p changed.
func (w *Worker) markDirty(name string, p route.Prefix) {
	w.dirty(name).prefixes[p] = struct{}{}
}

// ApplyDelta implements sidecar.WorkerAPI: swap changed local device
// models into resident state after a converged run, without the full reset
// of Setup. Changed devices get their BGP processes rebuilt (every shard
// round cold-resets them anyway, so a fresh process is indistinguishable
// from a reset one), and prefixes no device originates any more are purged
// from the accumulated per-node results. OSPF processes are deliberately
// left alone: any delta that could change OSPF behaviour classifies as a
// topology change on the controller and takes the full Setup path instead.
func (w *Worker) ApplyDelta(req sidecar.DeltaRequest) (sidecar.DeltaReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("apply-delta")
	defer span.End()
	w.log.LogAttrs(context.Background(), slog.LevelDebug, "apply-delta", obs.Kind("phase"), slog.Int("worker", w.id),
		slog.Int("configs", len(req.Configs)), slog.Int("purge_prefixes", len(req.PurgePrefixes)))
	var reply sidecar.DeltaReply
	// Pending spilled harvests land first, or a later drain would
	// resurrect what the purge below removes.
	if err := w.drainSpills(); err != nil {
		return reply, err
	}
	if len(req.Configs) > 0 {
		files := make(map[string]string, len(req.Configs))
		for name, text := range req.Configs {
			files[name+".cfg"] = text
		}
		snap, err := config.ParseTexts(files)
		if err != nil {
			return reply, fmt.Errorf("core: worker %d parsing delta configs: %w", w.id, err)
		}
		for name, dev := range snap.Devices {
			old, ok := w.devices[name]
			if !ok {
				return reply, fmt.Errorf("core: worker %d received delta for non-local device %q", w.id, name)
			}
			// Most swaps (origination, policy, a description) leave what the
			// data plane compiles from the model alone; only a change there
			// recompiles the node rather than patching changed prefixes.
			if !dataplane.SameForwardingConfig(old, dev) {
				w.dirty(name).whole = true
			}
			w.devices[name] = dev
			if dev.BGP != nil {
				w.bgpProcs[name] = bgp.NewProcess(dev, w.sessions[name], w.tracker)
			} else {
				delete(w.bgpProcs, name)
			}
			reply.Devices++
		}
	}
	if len(req.PurgePrefixes) > 0 {
		for _, name := range w.localNames {
			for _, p := range req.PurgePrefixes {
				if w.fibRIBs[name].Remove(p) {
					w.markDirty(name, p)
				}
				if w.keepRIBs {
					w.finalRIBs[name].Remove(p)
				}
			}
		}
	}
	return reply, nil
}

// ComputeDP implements sidecar.WorkerAPI: bring every local node's per-port
// predicates, on this worker's private BDD engine, in line with the current
// RIBs and device models. The engine and the compiled nodes are resident, so
// only what dpDirty recorded since the last call is touched: a node whose
// forwarding config changed is compiled afresh, a node with changed prefixes
// is patched inside the region they cover (dataplane.NodeDP.Patch), and a
// clean node is left alone. Pending spill files are harvested first, so in
// spill mode too only the prefixes their shards changed are dirty. The first
// call after Setup finds everything dirty: the same code compiles all nodes
// into a fresh engine.
func (w *Worker) ComputeDP() (sidecar.ComputeDPReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("compute-dp")
	defer span.End()
	reply := sidecar.ComputeDPReply{}
	if err := w.drainSpills(); err != nil {
		return reply, err
	}
	// A recompute ends whatever query pass came before it: queued packets,
	// wire tables and delta sessions hold refs to predicates that are about
	// to change (or, on the cold path, to an engine about to be dropped).
	w.clearQueryState()
	cold := w.engine == nil
	if cold {
		w.newEngine()
		w.nodesDP = map[string]*dataplane.NodeDP{}
	}
	// Per-node FIB builds and BDD compiles are independent given the
	// concurrent engine, so they run on the pool; the reply counters and
	// error list merge sequentially in name order.
	type dpRes struct {
		errs    []string
		entries int
		bytes   int64
		node    *dataplane.NodeDP // set when compiled afresh
		patched int               // prefixes patched in place
	}
	names := w.localNames
	res := make([]dpRes, len(names))
	err := runIndexed(w.procs, len(names), func(i int) error {
		name := names[i]
		n, d := w.nodesDP[name], w.dpDirty[name]
		whole := n == nil || (d != nil && d.whole)
		if !whole && (d == nil || len(d.prefixes) == 0) {
			return nil
		}
		var region *dataplane.Region // nil: the whole destination space
		if !whole {
			prefixes := make([]route.Prefix, 0, len(d.prefixes))
			for p := range d.prefixes {
				prefixes = append(prefixes, p)
			}
			region = dataplane.NewRegion(prefixes)
			res[i].patched = len(prefixes)
		}
		dev := w.devices[name]
		ribs := []*route.RIB{w.fibRIBs[name]}
		if op, ok := w.ospfProcs[name]; ok {
			ribs = append(ribs, op.Routes())
		}
		fib, errs := dataplane.BuildFIBIn(dev, region, ribs...)
		for _, e := range errs {
			res[i].errs = append(res[i].errs, e.Error())
		}
		res[i].entries = len(fib.Entries)
		res[i].bytes = fib.ModelBytes()
		if !whole {
			return n.Patch(w.engine, region, fib)
		}
		n, err := dataplane.CompileNode(w.engine, dev, fib)
		res[i].node = n
		return err
	})
	if err != nil {
		// dpDirty is kept: a patch reads only current state, so the retry
		// redoes this call's work over whatever part of it landed.
		return reply, err
	}
	var fibBytes int64
	for i, name := range names {
		reply.Errors = append(reply.Errors, res[i].errs...)
		reply.FIBEntries += res[i].entries
		reply.PatchedPrefixes += res[i].patched
		fibBytes += res[i].bytes
		if res[i].node != nil {
			w.nodesDP[name] = res[i].node
			reply.RecompiledNodes++
		}
	}
	w.dpDirty = map[string]*dirtyNode{}
	if reply.RecompiledNodes == len(names) {
		// The modelled FIB footprint is taken whenever every node was
		// compiled from scratch (a cold compute, or its retry after a
		// failure): a patch moves it by a few entries and no FIB is kept
		// to re-measure.
		w.tracker.Set("fib.compiled", fibBytes)
	}
	if !cold && w.engine.NodeCount() > w.pacer.postThreshold() {
		// Replaced predicates are garbage in the resident engine; the
		// compiled nodes are the only roots left (see clearQueryState).
		w.gcEngine()
	}
	reply.BDDNodes = w.engine.NodeCount()
	w.vitals.bddNodes.Store(int64(reply.BDDNodes))
	w.obsBDD(reply.BDDNodes, false)
	w.log.LogAttrs(context.Background(), slog.LevelDebug, "compute-dp", obs.Kind("phase"),
		slog.Int("recompiled_nodes", reply.RecompiledNodes), slog.Int("patched_prefixes", reply.PatchedPrefixes),
		slog.Int("bdd_nodes", reply.BDDNodes))
	return reply, w.tracker.CheckBudget()
}

// newEngine replaces the worker's BDD engine with an empty one. The old
// engine's share of the modelled-memory gauge goes with it: the gauge is fed
// by growth deltas, so without the reset every replaced engine would stay
// charged forever and a long-lived daemon would report a false OOM.
func (w *Worker) newEngine() {
	w.engine = w.layout.NewEngine(w.maxBDD)
	w.tracker.Set("bdd", w.engine.ModelBytes())
	w.engine.SetGrowObserver(func(delta int) {
		w.tracker.Add("bdd", int64(delta)*bdd.NodeModelBytes)
	})
	// The marker pool reuses the worker's phase parallelism; at -procs 1
	// the mark stays fully sequential.
	w.engine.SetGCParallelism(w.procs)
}

// BeginQueryBatch implements sidecar.WorkerAPI: arm one symbolic pass,
// wiring waypoint write rules and the per-query destination sets for
// Arrive/Exit classification, and inject every query at the sources this
// worker hosts. It starts the pass over from scratch, so a retry of a
// timed-out call re-arms the same pass. Pass-wide state (transit metadata
// bits, TTL) comes from the first query — the controller only batches
// BatchCompatible queries, and the worker re-checks. In a pass of more
// than one query the injected packets carry dataplane.QueryTag(i) source
// prefixes so the wavefront never merges packets across queries
// (packetSlot keys on the tagged source); a pass of one is untagged.
func (w *Worker) BeginQueryBatch(req sidecar.QueryBatchRequest) error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("begin-query")
	defer span.End()
	if w.nodesDP == nil {
		return fmt.Errorf("core: worker %d: ComputeDP must run before queries", w.id)
	}
	if len(req.Queries) == 0 {
		return fmt.Errorf("core: worker %d: empty query batch", w.id)
	}
	w.log.LogAttrs(context.Background(), slog.LevelDebug, "begin-query", obs.Kind("phase"),
		slog.Int("queries", len(req.Queries)))
	qs := req.Queries
	for i := range qs {
		if err := qs[i].Validate(w.layout); err != nil {
			return err
		}
		if !dataplane.BatchCompatible(&qs[0], &qs[i]) {
			return fmt.Errorf("core: worker %d: query %d is not batch-compatible", w.id, i)
		}
	}
	w.query = &qs[0]
	w.dests = make([]map[string]bool, len(qs))
	for i := range qs {
		if len(qs[i].Dests) == 0 {
			continue
		}
		ds := make(map[string]bool, len(qs[i].Dests))
		for _, d := range qs[i].Dests {
			ds[d] = true
		}
		w.dests[i] = ds
	}
	for name, n := range w.nodesDP {
		n.MetaBit = w.query.MetaBitFor(name)
	}
	w.clearQueryState()
	// A finished pass collected its own garbage in FinishQuery; what a
	// cold compile or a pass that never finished left behind is collected
	// here once the pacer's threshold is crossed, as at every safe point.
	if w.engine.NodeCount() > w.pacer.postThreshold() {
		w.gcEngine()
	}
	return w.inject(req)
}

// inject queues each query's header space at the sources this worker
// hosts, Or-merged per slot like any other arrival. In a batch pass the
// packet circulates under its tagged source, which keeps per-query packets
// in distinct wavefront slots end to end. Call with phaseMu held, after
// clearQueryState: the queued refs are GC roots from here on.
func (w *Worker) inject(req sidecar.QueryBatchRequest) error {
	queued := map[packetSlot]bdd.Ref{}
	for i := range req.Queries {
		q := &req.Queries[i]
		base, err := q.Header.Compile(w.engine)
		if err != nil {
			return err
		}
		tag := ""
		if len(req.Queries) > 1 {
			tag = dataplane.QueryTag(i)
		}
		for _, src := range q.Sources {
			if owner, ok := w.assignment[src]; !ok || owner != w.id {
				continue
			}
			pkt := base
			if req.ConstrainSrc {
				srcSet, err := dataplane.PrefixSetMatch(w.engine, dataplane.OffSrcIP, ownedPrefixes(w.devices[src]))
				if err != nil {
					return err
				}
				if srcSet != bdd.False {
					if pkt, err = w.engine.And(base, srcSet); err != nil {
						return err
					}
				}
			}
			if pkt == bdd.False {
				continue
			}
			if err := w.mergeSlot(queued, packetSlot{source: tag + src, node: src}, pkt); err != nil {
				return err
			}
		}
	}
	w.qmu.Lock()
	w.queue, w.queueLen = queued, len(queued)
	w.qmu.Unlock()
	return nil
}

// clearQueryState drops everything a query pass holds refs through: the
// wavefront, recorded outcomes, and both halves of the wire protocol. The
// compiled nodes are the engine's only roots afterwards. Call with phaseMu
// held.
func (w *Worker) clearQueryState() {
	w.qmu.Lock()
	w.queue = map[packetSlot]bdd.Ref{}
	w.queueLen = 0
	w.outcomes = nil
	w.qround = 0
	// Wire sessions are per phase: drop receive state and start the send
	// sessions over so every peer's first message is self-contained.
	w.wireInbox = nil
	w.recvTables = map[int]*bdd.WireTable{}
	w.qmu.Unlock()
	w.sendSessions = map[int]*bdd.WireSession{}
}

// mergeSlot Or-merges pkt into m's slot: packets of one source that meet
// at the same node and port travel on as one set.
func (w *Worker) mergeSlot(m map[packetSlot]bdd.Ref, slot packetSlot, pkt bdd.Ref) error {
	if prev, ok := m[slot]; ok {
		merged, err := w.engine.Or(prev, pkt)
		if err != nil {
			return err
		}
		pkt = merged
	}
	m[slot] = pkt
	return nil
}

// DPRound implements sidecar.WorkerAPI: process one wavefront hop for all
// queued packets on local nodes (Figure 3's per-worker forwarding), sending
// boundary-crossing packets to peer sidecars. The slots' Forward calls run
// on the pool against the concurrent engine, chunk by chunk; classification,
// next-wavefront merging and peer delivery follow sequentially in slot
// order, so outcomes and deliveries are the same at every pool size (at
// procs 1 runIndexed runs each chunk inline, in index order).
func (w *Worker) DPRound() error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	if w.query == nil {
		return fmt.Errorf("core: worker %d: no active query", w.id)
	}
	span := w.obsWorkerSpan("dp-round")
	defer span.End()
	// Only deliveries stamped for this round or earlier materialize;
	// later-stamped ones park until their round.
	w.qmu.Lock()
	cur := w.queue
	w.queue = map[packetSlot]bdd.Ref{}
	w.queueLen = 0
	round := w.qround
	w.qround++
	w.qmu.Unlock()
	if err := w.drainInbox(cur, round); err != nil {
		return err
	}
	if len(cur) == 0 {
		return nil
	}

	slots := sortedSlots(cur)

	type portOut struct {
		out   bdd.Ref
		edge  bool
		dest  dataplane.PortDest
		owner int
	}
	type fwdRes struct {
		local, dropped bdd.Ref
		ports          []portOut
	}
	nextLocal := map[packetSlot]bdd.Ref{}
	res := make([]fwdRes, len(slots))
	chunk := dpChunkPerProc * w.procs
	for lo := 0; lo < len(slots); lo += chunk {
		hi := lo + chunk
		if hi > len(slots) {
			hi = len(slots)
		}
		// The slots not yet forwarded and the partial next wavefront are
		// live across a mid-round collection.
		if w.engine.NodeCount() > w.pacer.midThreshold() {
			remap := w.gcWithExtraRoots(func(add func(bdd.Ref)) {
				for _, rest := range slots[lo:] {
					add(cur[rest])
				}
				for _, r := range nextLocal {
					add(r)
				}
			})
			for _, rest := range slots[lo:] {
				cur[rest] = remap(cur[rest])
			}
			for k, r := range nextLocal {
				nextLocal[k] = remap(r)
			}
		}
		err := runIndexed(w.procs, hi-lo, func(i int) error {
			si := lo + i
			s := slots[si]
			n, ok := w.nodesDP[s.node]
			if !ok {
				return fmt.Errorf("core: worker %d received packet for non-local node %q", w.id, s.node)
			}
			r, err := n.Forward(w.engine, cur[s], s.inPort)
			if err != nil {
				return err
			}
			res[si].local, res[si].dropped = r.Local, r.Dropped
			ports := make([]string, 0, len(r.Out))
			for port := range r.Out {
				ports = append(ports, port)
			}
			sort.Strings(ports)
			for _, port := range ports {
				po := portOut{out: r.Out[port]}
				dest, ok := w.adjIndex[s.node][port]
				if !ok {
					po.edge = true
				} else {
					po.dest = dest
					po.owner = w.assignment[dest.Node]
				}
				res[si].ports = append(res[si].ports, po)
			}
			return nil
		})
		if err != nil {
			return err
		}

		// chunkWire coalesces every boundary-crossing packet of this chunk
		// per destination worker; it is flushed before the next chunk so the
		// refs never have to survive a chunk-boundary GC.
		chunkWire := map[int][]wireItem{}
		for si := lo; si < hi; si++ {
			s := slots[si]
			w.classify(s.source, s.node, dataplane.Arrive, res[si].local)
			w.classify(s.source, s.node, dataplane.Blackhole, res[si].dropped)
			for _, po := range res[si].ports {
				if po.edge {
					// Edge port: leaves the network here.
					state := dataplane.Exit
					if w.isDest(s.source, s.node) {
						state = dataplane.Arrive
					}
					w.classify(s.source, s.node, state, po.out)
					continue
				}
				if po.owner == w.id {
					slot := packetSlot{source: s.source, node: po.dest.Node, inPort: po.dest.Port}
					if err := w.mergeSlot(nextLocal, slot, po.out); err != nil {
						return err
					}
				} else {
					chunkWire[po.owner] = append(chunkWire[po.owner], wireItem{
						source: s.source,
						node:   po.dest.Node,
						inPort: po.dest.Port,
						out:    po.out,
					})
				}
			}
		}
		// Ship this chunk's crossings: one substrate message per destination
		// worker (③→④→⑤ in Figure 3, batched).
		if err := w.shipRemote(chunkWire, round+1); err != nil {
			return err
		}
	}

	w.qmu.Lock()
	w.queue = nextLocal
	w.queueLen = len(nextLocal)
	w.qmu.Unlock()

	// This round's intermediate packet sets are dead; predicates, queued
	// packets and recorded outcomes stay live (§4.3). The grow observer has
	// already charged the intra-round high water, so the peak is preserved.
	if w.engine.NodeCount() > w.pacer.postThreshold() {
		w.gcEngine()
	}
	return w.tracker.CheckBudget()
}

// gcEngine collects the worker's BDD engine, remapping every live ref.
func (w *Worker) gcEngine() {
	w.gcWithExtraRoots(nil)
}

// gcWithExtraRoots collects with the standard roots plus caller-provided
// extras; the caller must remap any extra refs itself using the returned
// function.
func (w *Worker) gcWithExtraRoots(extra func(add func(bdd.Ref))) func(bdd.Ref) bdd.Ref {
	if w.engine == nil {
		return func(r bdd.Ref) bdd.Ref { return r }
	}
	gcStart := time.Now()
	nodesBefore := w.engine.NodeCount()
	// GC spans are created directly rather than through obsWorkerSpan: the
	// pending remote trace parent belongs to the phase span of the RPC in
	// flight, and a collection is an implementation detail inside it.
	var gcSpan *obs.Span
	if w.obs != nil && w.obs.tracer != nil {
		if w.obs.shardSpan != nil {
			gcSpan = w.obs.shardSpan.Child("gc", obs.Int("nodes_before", nodesBefore))
		} else {
			gcSpan = w.obs.tracer.Start("gc", obs.Int("nodes_before", nodesBefore)).SetWorker(w.id)
		}
	}
	var roots []bdd.Ref
	if extra != nil {
		extra(func(r bdd.Ref) { roots = append(roots, r) })
	}
	for _, n := range w.nodesDP {
		roots = append(roots, n.RootRefs()...)
	}
	w.qmu.Lock()
	for _, r := range w.queue {
		roots = append(roots, r)
	}
	// Materialized wire tables stay live across a GC: parked deliveries in
	// wireInbox may still splice onto them, so their refs are roots and are
	// remapped in place below.
	for _, t := range w.recvTables {
		roots = append(roots, t.Refs()...)
	}
	w.qmu.Unlock()
	for _, o := range w.outcomes {
		roots = append(roots, o.Packet)
	}
	remap := w.engine.GC(roots)
	for _, n := range w.nodesDP {
		n.Remap(remap)
	}
	w.qmu.Lock()
	for k, r := range w.queue {
		w.queue[k] = remap(r)
	}
	for _, t := range w.recvTables {
		t.Remap(remap)
	}
	w.qmu.Unlock()
	for i := range w.outcomes {
		w.outcomes[i].Packet = remap(w.outcomes[i].Packet)
	}
	// Send sessions key on local refs, which the collection just renumbered:
	// every delta session starts over at the next ship.
	for _, s := range w.sendSessions {
		s.Reset()
	}
	if len(w.sendSessions) > 0 {
		w.log.LogAttrs(context.Background(), slog.LevelDebug, "send sessions reset after gc",
			obs.Kind("wire"), slog.Int("sessions", len(w.sendSessions)))
	}
	st := w.engine.GCStats()
	w.pacer.observe(st)
	if w.gcPauses != nil {
		w.gcPauses.Observe(st.LastPause)
		w.vitals.gcPauseP99.Store(w.gcPauses.Quantile(0.99).Microseconds())
	}
	nodesAfter := w.engine.NodeCount()
	w.vitals.bddNodes.Store(int64(nodesAfter))
	w.obsBDD(nodesAfter, true)
	w.obsGC(st)
	gcSpan.SetAttr("nodes_after", fmt.Sprint(nodesAfter))
	gcSpan.SetAttr("mark_us", fmt.Sprint(st.LastMark.Microseconds()))
	gcSpan.SetAttr("sweep_us", fmt.Sprint(st.LastSweep.Microseconds()))
	gcSpan.SetAttr("relocate_us", fmt.Sprint(st.LastRelocate.Microseconds()))
	gcSpan.SetAttr("relocated", fmt.Sprint(st.LastCacheRelocated))
	gcSpan.SetAttr("mark_procs", fmt.Sprint(st.LastMarkProcs))
	gcSpan.End()
	w.log.LogAttrs(context.Background(), slog.LevelDebug, "bdd gc", obs.Kind("gc"),
		slog.Int("nodes_before", nodesBefore), slog.Int("nodes_after", nodesAfter),
		slog.Duration("took", time.Since(gcStart)), slog.Duration("mark", st.LastMark),
		slog.Int("mark_procs", st.LastMarkProcs), slog.Duration("sweep", st.LastSweep),
		slog.Duration("relocate", st.LastRelocate),
		slog.Int("cache_kept", st.LastCacheRelocated), slog.Int("cache_dropped", st.LastCacheDropped))
	return remap
}

// isDest reports whether delivery at node counts as Arrive for the query
// that owns source. In a pass of several queries the source's tag index
// selects the query's dest set; a pass of one is untagged.
func (w *Worker) isDest(source, node string) bool {
	var ds map[string]bool
	switch {
	case len(w.dests) == 1:
		ds = w.dests[0]
	case len(w.dests) > 1:
		if i, _, ok := dataplane.SplitQueryTag(source); ok && i < len(w.dests) {
			ds = w.dests[i]
		}
	}
	return ds == nil || ds[node]
}

func (w *Worker) classify(source, node string, state dataplane.FinalState, pkt bdd.Ref) {
	if pkt == bdd.False {
		return
	}
	if state == dataplane.Arrive && !w.isDest(source, node) {
		state = dataplane.Exit
	}
	w.outcomes = append(w.outcomes, dataplane.Outcome{Source: source, Node: node, State: state, Packet: pkt})
}

// HasWork implements sidecar.WorkerAPI.
func (w *Worker) HasWork() (bool, error) {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	return len(w.wireInbox) > 0 || w.queueLen > 0, nil
}

// FinishQuery implements sidecar.WorkerAPI: whatever still circulates has
// exceeded the TTL (Loop); serialize and return all outcomes, then end the
// pass. All outcome packets share one set-encoded substrate (root i pairs
// with Outcomes[i]).
func (w *Worker) FinishQuery() (sidecar.OutcomeBatch, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("finish-query")
	defer span.End()
	w.qmu.Lock()
	stragglers := w.queue
	w.queue = map[packetSlot]bdd.Ref{}
	w.queueLen = 0
	w.qmu.Unlock()
	// Deliveries that raced the controller's convergence check are loops
	// too, whatever round they were stamped for; drainInbox also
	// materializes any parked wire batches.
	if err := w.drainInbox(stragglers, math.MaxInt); err != nil {
		return sidecar.OutcomeBatch{}, err
	}
	slots := sortedSlots(stragglers)
	for _, s := range slots {
		w.outcomes = append(w.outcomes, dataplane.Outcome{Source: s.source, Node: s.node, State: dataplane.Loop, Packet: stragglers[s]})
	}

	batch := sidecar.OutcomeBatch{Outcomes: make([]dataplane.RawOutcome, len(w.outcomes))}
	refs := make([]bdd.Ref, len(w.outcomes))
	for i, o := range w.outcomes {
		refs[i] = o.Packet
		batch.Outcomes[i] = dataplane.RawOutcome{Source: o.Source, Node: o.Node, State: o.State}
	}
	batch.Wire = w.engine.SerializeSet(refs)
	w.obsWireBytes(len(batch.Wire))
	// The pass is over: drop its state and collect its garbage, so an idle
	// worker holds its predicates only, whichever safe points the pacer
	// collected at during the pass.
	w.clearQueryState()
	w.gcEngine()
	return batch, nil
}

// CollectRIBs implements sidecar.WorkerAPI: the merged full RIBs of local
// nodes (requires KeepRIBs).
func (w *Worker) CollectRIBs() (map[string][]*route.Route, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	if !w.keepRIBs {
		return nil, fmt.Errorf("core: worker %d was set up with KeepRIBs=false", w.id)
	}
	out := map[string][]*route.Route{}
	for name, rib := range w.finalRIBs {
		out[name] = rib.All()
	}
	return out, nil
}

// PullSpans implements sidecar.WorkerAPI: drain a batch of completed spans
// from the export ring, stamping the reply with the local wall clock so the
// controller can estimate this worker's offset. Deliberately does NOT take
// phaseMu — the controller's background harvester must be able to drain the
// ring while a long phase (convergence, DP compute) holds the phase lock.
func (w *Worker) PullSpans(req sidecar.PullSpansRequest) (sidecar.PullSpansReply, error) {
	reply := sidecar.PullSpansReply{NowUnixMicro: time.Now().UnixMicro()}
	if req.WithFlight {
		reply.Flight = w.flight.Page(0)
	}
	if w.obs == nil || w.obs.tracer == nil {
		return reply, nil
	}
	max := req.Max
	if max <= 0 {
		max = 2048
	}
	reply.Spans, reply.Dropped, reply.More = w.obs.tracer.DrainExport(max)
	return reply, nil
}

// Stats implements sidecar.WorkerAPI.
func (w *Worker) Stats() (sidecar.WorkerStats, error) {
	w.qmu.Lock()
	pulls, packets := w.statsPulls, w.statsPackets
	w.qmu.Unlock()
	st := sidecar.WorkerStats{
		WorkerID:   w.id,
		Nodes:      len(w.devices),
		PeakBytes:  w.tracker.Peak(),
		NowBytes:   w.tracker.Current(),
		RoutePulls: pulls,
		PacketsIn:  packets,
	}
	if w.engine != nil {
		st.BDDNodes = w.engine.NodeCount()
		gs := w.engine.GCStats()
		st.GCRuns = gs.Runs
		st.GCPauseMicros = gs.TotalPause.Microseconds()
		st.GCCacheRelocated = gs.CacheRelocated
	}
	if w.gcPauses != nil {
		st.GCPauseP50Micros = w.gcPauses.Quantile(0.50).Microseconds()
		st.GCPauseP99Micros = w.gcPauses.Quantile(0.99).Microseconds()
	}
	return st, nil
}

// workerVitals mirrors phase-guarded worker state behind atomics so the
// PullStats probe reads a consistent-enough snapshot without phaseMu.
// Writers hold phaseMu (phase boundaries are the only mutation points);
// readers are lock-free.
type workerVitals struct {
	id         atomic.Int64
	shard      atomic.Int64
	bddNodes   atomic.Int64
	gcPauseP99 atomic.Int64 // microseconds
}

// reset re-arms the mirror for a (re-)Setup. Caller holds phaseMu.
func (v *workerVitals) reset(workerID int) {
	v.id.Store(int64(workerID))
	v.shard.Store(0)
	v.bddNodes.Store(0)
	v.gcPauseP99.Store(0)
}

// PullStats implements sidecar.WorkerAPI: the fleet health sampler's
// vitals probe. Like Ping/Stats/PullSpans it never takes phaseMu — the
// controller polls it at heartbeat cadence while phases run — so all
// phase-owned state arrives via the atomic vitals mirror.
func (w *Worker) PullStats(_ sidecar.PullStatsRequest) (sidecar.PullStatsReply, error) {
	w.qmu.Lock()
	round := w.qround
	queued := w.queueLen + len(w.wireInbox)
	w.qmu.Unlock()
	return sidecar.PullStatsReply{Vitals: sidecar.WorkerVitals{
		WorkerID:         int(w.vitals.id.Load()),
		Shard:            int(w.vitals.shard.Load()),
		Round:            round,
		QueueLen:         queued,
		BDDNodes:         w.vitals.bddNodes.Load(),
		GCPauseP99Micros: w.vitals.gcPauseP99.Load(),
		RSSBytes:         obs.ProcessRSSBytes(),
		HeapBytes:        obs.HeapBytes(),
		Goroutines:       runtime.NumGoroutine(),
		NowUnixMicro:     time.Now().UnixMicro(),
	}}, nil
}

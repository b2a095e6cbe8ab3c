// Package baseline implements the two comparison systems of the paper's
// evaluation (§5.2):
//
//   - Batfish: the centralized, single-server simulation-based verifier —
//     one process computes every node's routes and verifies the data plane
//     with a single shared BDD table (the scale-up architecture S2 scales
//     out). Figure 4 also evaluates "Batfish with prefix sharding", so the
//     sharding bolt-on is an option here.
//   - Bonsai: per-destination control plane compression — for a synthesized
//     FatTree and a concrete destination prefix, the network compresses to
//     6 nodes; all-pair reachability runs one compressed simulation per
//     prefix, in parallel, bounded by the core count (§5.4).
package baseline

import (
	"fmt"

	"s2/internal/bdd"
	"s2/internal/bgp"
	"s2/internal/config"
	"s2/internal/dataplane"
	"s2/internal/metrics"
	"s2/internal/ospf"
	"s2/internal/route"
	"s2/internal/shard"
	"s2/internal/topology"
)

// BatfishOptions configures the centralized verifier.
type BatfishOptions struct {
	// Shards > 1 enables the prefix-sharding bolt-on (Figure 4's
	// "Batfish+sharding" configuration).
	Shards int
	// Seed feeds the shard shuffler.
	Seed int64
	// MemoryBudget is the modelled memory budget of the single logical
	// server (0 = unlimited).
	MemoryBudget int64
	// MetaBits sizes the packet metadata field.
	MetaBits int
	// KeepRIBs retains full RIBs for equivalence testing.
	KeepRIBs bool
}

// maxRounds guards convergence.
const maxRounds = 128

// Batfish is the centralized verifier instance.
type Batfish struct {
	opts BatfishOptions
	snap *config.Snapshot
	net  *topology.Network

	bgpProcs  map[string]*bgp.Process
	ospfProcs map[string]*ospf.Process

	fibRIBs   map[string]*route.RIB
	finalRIBs map[string]*route.RIB

	layout  dataplane.Layout
	engine  *bdd.Engine
	nodesDP map[string]*dataplane.NodeDP
	adj     dataplane.AdjacencyIndex

	tracker  *metrics.Tracker
	clock    metrics.StageClock
	cpRounds int
}

// NewBatfish builds the verifier over a parsed snapshot.
func NewBatfish(snap *config.Snapshot, opts BatfishOptions) (*Batfish, error) {
	net, err := topology.Build(snap)
	if err != nil {
		return nil, err
	}
	b := &Batfish{
		opts:      opts,
		snap:      snap,
		net:       net,
		bgpProcs:  map[string]*bgp.Process{},
		ospfProcs: map[string]*ospf.Process{},
		fibRIBs:   map[string]*route.RIB{},
		finalRIBs: map[string]*route.RIB{},
		layout:    dataplane.Layout{MetaBits: opts.MetaBits},
		tracker:   metrics.NewTracker("batfish", opts.MemoryBudget),
	}
	for name, dev := range snap.Devices {
		if dev.BGP != nil {
			b.bgpProcs[name] = bgp.NewProcess(dev, net.Sessions[name], b.tracker)
		}
		if dev.OSPF != nil {
			b.ospfProcs[name] = ospf.NewProcess(dev, net.Adjacencies[name], b.tracker)
		}
		b.fibRIBs[name] = route.NewRIB()
		if opts.KeepRIBs {
			b.finalRIBs[name] = route.NewRIB()
		}
	}
	return b, nil
}

// Stages returns each stage's time record. The baseline runs no
// orchestration rounds, so only the wall times are set.
func (b *Batfish) Stages() map[string]metrics.StageTime { return b.clock.Snapshot() }

// PeakBytes returns the modelled peak memory of the single server.
func (b *Batfish) PeakBytes() int64 { return b.tracker.Peak() }

// CPRounds returns the number of control-plane rounds executed.
func (b *Batfish) CPRounds() int { return b.cpRounds }

// RunControlPlane simulates OSPF then BGP to their fixed points, using the
// same two-phase (gather/apply) rounds as S2's workers so both systems
// compute identical RIBs (§5.3).
func (b *Batfish) RunControlPlane() error {
	if len(b.ospfProcs) > 0 {
		if err := b.clock.Time(metrics.StageCPOSPF, b.runOSPF); err != nil {
			return err
		}
	}
	if len(b.bgpProcs) == 0 {
		return nil
	}

	var shards []*shard.Shard
	if b.opts.Shards > 1 {
		dpdg := shard.BuildDPDG(b.snap)
		var err error
		shards, err = shard.MakeShards(dpdg, b.opts.Shards, b.opts.Seed)
		if err != nil {
			return err
		}
	} else {
		shards = []*shard.Shard{nil}
	}

	return b.clock.Time(metrics.StageCPBGP, func() error {
		for i, sh := range shards {
			var filter bgp.PrefixFilter
			if sh != nil {
				filter = sh.Contains
			}
			for name, proc := range b.bgpProcs {
				proc.ResetForShard(filter)
				if op, ok := b.ospfProcs[name]; ok {
					proc.SetExternalRoutes("ospf", op.Routes().All())
				}
			}
			if err := b.runBGPShard(i); err != nil {
				return err
			}
			b.harvestShard()
		}
		return nil
	})
}

func (b *Batfish) runOSPF() error {
	pulls := map[[2]string]*pullState{}
	for round := 0; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("baseline: OSPF did not converge")
		}
		b.cpRounds++
		pending := map[string][]*ospf.LSA{}
		for _, name := range b.snap.DeviceNames() {
			proc, ok := b.ospfProcs[name]
			if !ok {
				continue
			}
			for _, nb := range proc.NeighborNames() {
				exp, ok := b.ospfProcs[nb]
				if !ok {
					continue
				}
				st := getPull(pulls, name, nb)
				lsas, ver, fresh := exp.ExportsTo(name, st.version, st.seen)
				if fresh {
					st.version, st.seen = ver, true
					pending[name] = append(pending[name], lsas...)
				}
			}
		}
		changed := false
		for _, name := range b.snap.DeviceNames() {
			proc, ok := b.ospfProcs[name]
			if !ok {
				continue
			}
			merged := proc.MergeLSAs(pending[name])
			if merged || proc.Routes().Len() == 0 {
				if proc.RunSPF() {
					changed = true
				}
			}
			if merged {
				changed = true
			}
		}
		if err := b.tracker.CheckBudget(); err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
}

type pullState struct {
	version uint64
	seen    bool
}

func getPull(m map[[2]string]*pullState, a, bn string) *pullState {
	key := [2]string{a, bn}
	st, ok := m[key]
	if !ok {
		st = &pullState{}
		m[key] = st
	}
	return st
}

func (b *Batfish) runBGPShard(idx int) error {
	pulls := map[[2]string]*pullState{}
	needsRun := map[string]bool{}
	for name := range b.bgpProcs {
		needsRun[name] = true
	}
	for round := 0; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("baseline: BGP shard %d did not converge in %d rounds", idx, maxRounds)
		}
		b.cpRounds++
		// Gather (Jacobi phase 1).
		pending := map[string]map[string][]bgp.Advertisement{}
		for _, name := range b.snap.DeviceNames() {
			proc, ok := b.bgpProcs[name]
			if !ok {
				continue
			}
			for _, nb := range proc.NeighborNames() {
				exp, ok := b.bgpProcs[nb]
				if !ok {
					continue
				}
				st := getPull(pulls, name, nb)
				advs, ver, fresh := exp.ExportsTo(name, st.version, st.seen)
				if !fresh {
					continue
				}
				st.version, st.seen = ver, true
				if pending[name] == nil {
					pending[name] = map[string][]bgp.Advertisement{}
				}
				pending[name][nb] = advs
			}
		}
		// Apply (phase 2).
		changed := false
		for _, name := range b.snap.DeviceNames() {
			proc, ok := b.bgpProcs[name]
			if !ok {
				continue
			}
			for nb, advs := range pending[name] {
				if proc.ImportFrom(nb, advs) {
					needsRun[name] = true
				}
			}
			if needsRun[name] {
				needsRun[name] = false
				if proc.RunDecision() {
					changed = true
				}
			}
		}
		if err := b.tracker.CheckBudget(); err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
}

func liteRoute(r *route.Route) *route.Route {
	return &route.Route{
		Prefix:      r.Prefix,
		Protocol:    r.Protocol,
		NextHop:     r.NextHop,
		NextHopNode: r.NextHopNode,
	}
}

func (b *Batfish) harvestShard() {
	for name, proc := range b.bgpProcs {
		rib := proc.LocRIB()
		rib.Range(func(p route.Prefix, rs []*route.Route) {
			lites := make([]*route.Route, len(rs))
			for i, r := range rs {
				lites[i] = liteRoute(r)
			}
			b.fibRIBs[name].SetRoutes(p, lites)
			if b.opts.KeepRIBs {
				b.finalRIBs[name].SetRoutes(p, rs)
			}
		})
		proc.ResetForShard(nil)
	}
	var bytes int64
	for _, rib := range b.fibRIBs {
		bytes += int64(rib.RouteCount()) * route.LiteModelBytes
	}
	b.tracker.Set("fib.accum", bytes)
}

// RIBs returns the merged full RIBs (requires KeepRIBs).
func (b *Batfish) RIBs() (map[string]*route.RIB, error) {
	if !b.opts.KeepRIBs {
		return nil, fmt.Errorf("baseline: KeepRIBs disabled")
	}
	return b.finalRIBs, nil
}

// ComputeDataPlane builds every node's FIB and predicates on the single
// shared BDD engine — the centralized architecture whose node table and
// lock S2's per-worker engines avoid (§4.3).
func (b *Batfish) ComputeDataPlane() ([]string, error) {
	var warnings []string
	err := b.clock.Time(metrics.StageDPCompute, func() error {
		b.engine = b.layout.NewEngine(0)
		b.engine.SetGrowObserver(func(delta int) {
			b.tracker.Add("bdd", int64(delta)*bdd.NodeModelBytes)
		})
		b.nodesDP = map[string]*dataplane.NodeDP{}
		b.adj = dataplane.BuildAdjacencyIndex(b.net)
		for _, name := range b.snap.DeviceNames() {
			dev := b.snap.Devices[name]
			var ribs []*route.RIB
			ribs = append(ribs, b.fibRIBs[name])
			if op, ok := b.ospfProcs[name]; ok {
				ribs = append(ribs, op.Routes())
			}
			fib, errs := dataplane.BuildFIB(dev, ribs...)
			for _, e := range errs {
				warnings = append(warnings, e.Error())
			}
			n, err := dataplane.CompileNode(b.engine, dev, fib)
			if err != nil {
				return err
			}
			b.nodesDP[name] = n
		}
		return b.tracker.CheckBudget()
	})
	return warnings, err
}

// OwnedPrefixes mirrors the controller's notion of destination ownership.
func (b *Batfish) OwnedPrefixes(node string) []route.Prefix {
	dev := b.snap.Devices[node]
	if dev == nil || dev.BGP == nil {
		return nil
	}
	return dev.BGP.Networks
}

// PrefixOwners lists nodes originating prefixes.
func (b *Batfish) PrefixOwners() []string {
	var out []string
	for _, name := range b.snap.DeviceNames() {
		if len(b.OwnedPrefixes(name)) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// RunQuery executes one query on the centralized engine, injecting at each
// source and traversing sequentially (one BDD table, one operation at a
// time — §2.2's parallelism limit).
func (b *Batfish) RunQuery(q *dataplane.Query, constrainSrc bool) (*dataplane.Collector, error) {
	if b.nodesDP == nil {
		return nil, fmt.Errorf("baseline: ComputeDataPlane must run before queries")
	}
	if err := q.Validate(b.layout); err != nil {
		return nil, err
	}
	sources := q.Sources
	if len(sources) == 0 {
		sources = b.PrefixOwners()
	}
	for name, n := range b.nodesDP {
		n.MetaBit = q.MetaBitFor(name)
	}
	var isDest func(string) bool
	if len(q.Dests) > 0 {
		set := map[string]bool{}
		for _, d := range q.Dests {
			set[d] = true
		}
		isDest = func(n string) bool { return set[n] }
	}
	col := dataplane.NewCollector(b.engine, q)
	err := b.clock.Time(metrics.StageDPForward, func() error {
		base, err := q.Header.Compile(b.engine)
		if err != nil {
			return err
		}
		for _, src := range sources {
			pkt := base
			if constrainSrc {
				srcSet, err := dataplane.PrefixSetMatch(b.engine, dataplane.OffSrcIP, b.OwnedPrefixes(src))
				if err != nil {
					return err
				}
				if srcSet != bdd.False {
					pkt, err = b.engine.And(base, srcSet)
					if err != nil {
						return err
					}
				}
			}
			if pkt == bdd.False {
				continue
			}
			if err := dataplane.Traverse(b.engine, b.nodesDP, b.adj, src, pkt,
				q.EffectiveMaxHops(), isDest, col.Add); err != nil {
				return err
			}
			if err := b.tracker.CheckBudget(); err != nil {
				return err
			}
			// The single shared BDD table is collected only between
			// sources: intra-traversal garbage accumulates in the one
			// table, the §2.2 centralized cost S2's per-worker engines
			// avoid. (base is re-derived from query state, so it need
			// not stay live across the GC.)
			base, err = b.gcQuery(col, q)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return col, nil
}

// gcQuery collects the shared engine between per-source traversals,
// remapping node predicates and collector state, and recompiles the query's
// base header packet in the compacted table.
func (b *Batfish) gcQuery(col *dataplane.Collector, q *dataplane.Query) (bdd.Ref, error) {
	var roots []bdd.Ref
	for _, n := range b.nodesDP {
		roots = append(roots, n.RootRefs()...)
	}
	roots = append(roots, col.RootRefs()...)
	remap := b.engine.GC(roots)
	for _, n := range b.nodesDP {
		n.Remap(remap)
	}
	col.Remap(remap)
	return q.Header.Compile(b.engine)
}

// AllPairsResult mirrors core.AllPairsResult for the baseline.
type AllPairsResult struct {
	Collector  *dataplane.Collector
	Unreached  []string
	Violations []dataplane.Violation
}

// CheckAllPairs runs the paper's default property on the baseline.
func (b *Batfish) CheckAllPairs() (*AllPairsResult, error) {
	owners := b.PrefixOwners()
	if len(owners) == 0 {
		return nil, fmt.Errorf("baseline: no prefix owners")
	}
	var allOwned []route.Prefix
	for _, o := range owners {
		allOwned = append(allOwned, b.OwnedPrefixes(o)...)
	}
	q := &dataplane.Query{
		Header:  &dataplane.HeaderSpace{DstIn: allOwned},
		Sources: owners,
		Dests:   owners,
	}
	col, err := b.RunQuery(q, true)
	if err != nil {
		return nil, err
	}
	res := &AllPairsResult{Collector: col}
	srcUnion, err := dataplane.PrefixSetMatch(b.engine, dataplane.OffSrcIP, allOwned)
	if err != nil {
		return nil, err
	}
	for _, d := range owners {
		dstSet, err := dataplane.PrefixSetMatch(b.engine, dataplane.OffDstIP, b.OwnedPrefixes(d))
		if err != nil {
			return nil, err
		}
		expected, err := b.engine.And(dstSet, srcUnion)
		if err != nil {
			return nil, err
		}
		covered, err := b.engine.Implies(expected, col.Arrived(d))
		if err != nil {
			return nil, err
		}
		if !covered {
			res.Unreached = append(res.Unreached, d)
		}
	}
	res.Violations, err = col.Report()
	return res, err
}

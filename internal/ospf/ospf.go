// Package ospf implements a single-area OSPF model that fits S2's pull-based
// distributed simulation: link-state advertisements flood between neighbors
// round by round (the same exchange pattern as BGP in Algorithm 1), and each
// node runs Dijkstra locally over its link-state database once flooding
// converges. The CPO schedules OSPF before BGP so redistributed IGP routes
// are available (§4.2, "IGP protocols before EGP").
package ospf

import (
	"sort"
	"sync"

	"s2/internal/config"
	"s2/internal/metrics"
	"s2/internal/route"
	"s2/internal/topology"
)

// LSALink describes one point-to-point adjacency in a router LSA.
type LSALink struct {
	Neighbor string
	Cost     uint32
}

// LSAStub describes one advertised prefix in a router LSA.
type LSAStub struct {
	Prefix route.Prefix
	Cost   uint32
}

// LSA is a router link-state advertisement. Configurations are static, so a
// single LSA per router suffices (no sequence numbers or aging).
type LSA struct {
	Router   string
	RouterID uint32
	Links    []LSALink
	Stubs    []LSAStub
}

// ModelBytes is the modelled memory footprint of an LSA in a node's LSDB.
func (l *LSA) ModelBytes() int64 {
	return 64 + int64(len(l.Router)) + int64(len(l.Links))*24 + int64(len(l.Stubs))*16
}

func (l *LSA) equal(o *LSA) bool {
	if l.Router != o.Router || l.RouterID != o.RouterID ||
		len(l.Links) != len(o.Links) || len(l.Stubs) != len(o.Stubs) {
		return false
	}
	for i := range l.Links {
		if l.Links[i] != o.Links[i] {
			return false
		}
	}
	for i := range l.Stubs {
		if l.Stubs[i] != o.Stubs[i] {
			return false
		}
	}
	return true
}

// Process is the OSPF speaker for one device. Like bgp.Process, a mutex
// serializes the entry points parallel node tasks share: gather tasks for
// many pullers call ExportsTo on the same exporter while only the owner's
// apply task calls MergeLSAs/RunSPF — but those phases themselves run
// concurrently across nodes, so every state-touching method locks.
type Process struct {
	mu   sync.Mutex
	dev  *config.Device
	cfg  *config.OSPFConfig
	adjs []topology.Adjacency
	lsdb map[string]*LSA
	self *LSA
	// version increments when the LSDB changes; neighbors pull with their
	// last-seen version.
	version uint64
	routes  *route.RIB
	filter  func(route.Prefix) bool
	tracker *metrics.Tracker
}

// NewProcess builds the OSPF speaker. adjs are the device's layer-3
// adjacencies from the topology; tracker (optional) receives memory gauges.
func NewProcess(dev *config.Device, adjs []topology.Adjacency, tracker *metrics.Tracker) *Process {
	p := &Process{
		dev:     dev,
		cfg:     dev.OSPF,
		adjs:    adjs,
		lsdb:    make(map[string]*LSA),
		routes:  route.NewRIB(),
		tracker: tracker,
	}
	p.self = p.buildSelfLSA()
	p.lsdb[p.self.Router] = p.self
	p.version = 1
	p.updateGauges()
	return p
}

// enabledOn reports whether OSPF runs on an interface subnet.
func (p *Process) enabledOn(subnet route.Prefix) bool {
	if len(p.cfg.Networks) == 0 {
		return true
	}
	for _, n := range p.cfg.Networks {
		if n.Covers(subnet) {
			return true
		}
	}
	return false
}

// buildSelfLSA derives this router's LSA from its configuration and
// adjacencies.
func (p *Process) buildSelfLSA() *LSA {
	lsa := &LSA{Router: p.dev.Hostname, RouterID: p.cfg.RouterID}

	// Stub prefixes: every enabled, addressed, non-shutdown interface.
	seen := map[route.Prefix]bool{}
	names := p.dev.InterfaceNames()
	for _, name := range names {
		ifc := p.dev.Interfaces[name]
		if ifc.Shutdown || ifc.IP == 0 || !p.enabledOn(ifc.Subnet) {
			continue
		}
		if !seen[ifc.Subnet] {
			seen[ifc.Subnet] = true
			lsa.Stubs = append(lsa.Stubs, LSAStub{Prefix: ifc.Subnet, Cost: ifc.OSPFCost})
		}
	}
	sort.Slice(lsa.Stubs, func(i, j int) bool { return lsa.Stubs[i].Prefix.Compare(lsa.Stubs[j].Prefix) < 0 })

	// Links: adjacencies over enabled, non-passive interfaces.
	for _, adj := range p.adjs {
		ifc := p.dev.Interfaces[adj.LocalIfc]
		if ifc == nil || ifc.Shutdown || !p.enabledOn(ifc.Subnet) || p.cfg.Passive[adj.LocalIfc] {
			continue
		}
		lsa.Links = append(lsa.Links, LSALink{Neighbor: adj.Neighbor, Cost: ifc.OSPFCost})
	}
	sort.Slice(lsa.Links, func(i, j int) bool {
		if lsa.Links[i].Neighbor != lsa.Links[j].Neighbor {
			return lsa.Links[i].Neighbor < lsa.Links[j].Neighbor
		}
		return lsa.Links[i].Cost < lsa.Links[j].Cost
	})
	return lsa
}

// Routes returns the computed OSPF RIB.
func (p *Process) Routes() *route.RIB {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.routes
}

// NeighborNames returns adjacent OSPF-capable device names, sorted and
// deduplicated.
func (p *Process) NeighborNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range p.self.Links {
		if !seen[l.Neighbor] {
			seen[l.Neighbor] = true
			out = append(out, l.Neighbor)
		}
	}
	sort.Strings(out)
	return out
}

// SetPrefixFilter restricts which prefixes SPF installs (shard support).
func (p *Process) SetPrefixFilter(f func(route.Prefix) bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.filter = f
}

// ExportsTo returns the full LSDB if it changed since sinceVersion. OSPF
// floods the database rather than per-neighbor exports, so the neighbor
// argument is unused; the signature is bgp.Process.ExportsTo's, which lets
// one gather body pull from either protocol.
func (p *Process) ExportsTo(_ string, sinceVersion uint64, haveSeen bool) ([]*LSA, uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if haveSeen && sinceVersion == p.version {
		return nil, p.version, false
	}
	out := make([]*LSA, 0, len(p.lsdb))
	for _, name := range p.sortedLSDB() {
		out = append(out, p.lsdb[name])
	}
	return out, p.version, true
}

func (p *Process) sortedLSDB() []string {
	names := make([]string, 0, len(p.lsdb))
	for n := range p.lsdb {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MergeLSAs integrates flooded LSAs, reporting whether the LSDB changed.
func (p *Process) MergeLSAs(lsas []*LSA) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	changed := false
	for _, lsa := range lsas {
		if lsa.Router == p.self.Router {
			continue // own LSA is authoritative
		}
		if old, ok := p.lsdb[lsa.Router]; ok && old.equal(lsa) {
			continue
		}
		p.lsdb[lsa.Router] = lsa
		changed = true
	}
	if changed {
		p.version++
		p.updateGauges()
	}
	return changed
}

// RunSPF recomputes routes from the LSDB (Dijkstra with ECMP), reporting
// whether the route table changed.
func (p *Process) RunSPF() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	const inf = ^uint64(0)

	dist := map[string]uint64{p.self.Router: 0}
	// firstHops tracks the set of first-hop neighbor device names on
	// shortest paths to each router.
	firstHops := map[string]map[string]bool{p.self.Router: {}}

	visited := map[string]bool{}
	for {
		// Extract unvisited min-dist router (deterministic tie-break by name).
		cur, curDist := "", inf
		for _, name := range p.sortedLSDB() {
			if d, ok := dist[name]; ok && !visited[name] && (d < curDist || (d == curDist && name < cur)) {
				cur, curDist = name, d
			}
		}
		if cur == "" {
			break
		}
		visited[cur] = true
		lsa := p.lsdb[cur]
		for _, link := range lsa.Links {
			nb, ok := p.lsdb[link.Neighbor]
			if !ok || !hasReverseLink(nb, cur) {
				continue // two-way connectivity check
			}
			nd := curDist + uint64(link.Cost)
			od, seen := dist[link.Neighbor]
			if !seen || nd < od {
				dist[link.Neighbor] = nd
				firstHops[link.Neighbor] = p.firstHopsVia(cur, link.Neighbor, firstHops)
			} else if nd == od {
				for h := range p.firstHopsVia(cur, link.Neighbor, firstHops) {
					firstHops[link.Neighbor][h] = true
				}
			}
		}
	}

	// Install stub routes.
	type best struct {
		cost uint64
		hops map[string]bool
	}
	bests := map[route.Prefix]*best{}
	for router, d := range dist {
		lsa := p.lsdb[router]
		for _, stub := range lsa.Stubs {
			if p.filter != nil && !p.filter(stub.Prefix) {
				continue
			}
			total := d + uint64(stub.Cost)
			b, ok := bests[stub.Prefix]
			if !ok || total < b.cost {
				bests[stub.Prefix] = &best{cost: total, hops: copySet(firstHops[router])}
			} else if total == b.cost {
				for h := range firstHops[router] {
					b.hops[h] = true
				}
			}
		}
	}

	next := route.NewRIB()
	for pfx, b := range bests {
		if len(b.hops) == 0 {
			continue // local prefix; connected route covers it
		}
		var rs []*route.Route
		hops := make([]string, 0, len(b.hops))
		for h := range b.hops {
			hops = append(hops, h)
		}
		sort.Strings(hops)
		if p.cfg.MaxPaths >= 1 && len(hops) > p.cfg.MaxPaths {
			hops = hops[:p.cfg.MaxPaths]
		}
		for _, h := range hops {
			adj := p.adjacencyTo(h)
			if adj == nil {
				continue
			}
			rs = append(rs, &route.Route{
				Prefix:      pfx,
				Protocol:    route.OSPF,
				NextHop:     adj.RemoteIP,
				NextHopNode: h,
				Metric:      uint32(b.cost),
			})
		}
		next.SetRoutes(pfx, rs)
	}
	changed := !next.Equal(p.routes)
	p.routes = next
	p.updateGauges()
	return changed
}

// firstHopsVia returns the first-hop set for reaching target through cur:
// if cur is self, the first hop is the target itself; otherwise it inherits
// cur's first hops.
func (p *Process) firstHopsVia(cur, target string, firstHops map[string]map[string]bool) map[string]bool {
	if cur == p.self.Router {
		return map[string]bool{target: true}
	}
	return copySet(firstHops[cur])
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func hasReverseLink(lsa *LSA, router string) bool {
	for _, l := range lsa.Links {
		if l.Neighbor == router {
			return true
		}
	}
	return false
}

// adjacencyTo returns the lowest-cost adjacency to a neighbor device.
func (p *Process) adjacencyTo(neighbor string) *topology.Adjacency {
	var bestAdj *topology.Adjacency
	var bestCost uint32
	for i := range p.adjs {
		adj := &p.adjs[i]
		if adj.Neighbor != neighbor {
			continue
		}
		ifc := p.dev.Interfaces[adj.LocalIfc]
		if ifc == nil || ifc.Shutdown {
			continue
		}
		if bestAdj == nil || ifc.OSPFCost < bestCost {
			bestAdj, bestCost = adj, ifc.OSPFCost
		}
	}
	return bestAdj
}

func (p *Process) updateGauges() {
	if p.tracker == nil {
		return
	}
	var lsdbBytes int64
	for _, lsa := range p.lsdb {
		lsdbBytes += lsa.ModelBytes()
	}
	p.tracker.Set("ospf.lsdb."+p.dev.Hostname, lsdbBytes)
	p.tracker.Set("ospf.rib."+p.dev.Hostname, p.routes.ModelBytes())
}

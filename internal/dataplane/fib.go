package dataplane

import (
	"fmt"
	"sort"

	"s2/internal/bdd"
	"s2/internal/config"
	"s2/internal/route"
)

// FIBEntry is one forwarding table entry after RIB resolution.
type FIBEntry struct {
	Prefix route.Prefix
	// OutPorts are the egress interface names (multiple under ECMP).
	OutPorts []string
	// Local marks connected prefixes: matching packets are delivered at
	// this node.
	Local bool
	// Drop marks discard routes (static null0).
	Drop bool
}

// FIB is one node's forwarding table.
type FIB struct {
	Node    string
	Entries []FIBEntry
}

// ModelBytes is the modelled memory footprint of the FIB.
func (f *FIB) ModelBytes() int64 {
	var b int64
	for _, e := range f.Entries {
		b += 48
		for _, p := range e.OutPorts {
			b += int64(len(p)) + 16
		}
	}
	return b
}

// Region is a slice of destination address space: the union of a set of
// prefixes. It bounds an incremental data-plane recompile to what a change
// can touch — BuildFIBIn resolves only the FIB entries that intersect it and
// NodeDP.Patch rewrites the predicates only inside it. A nil *Region is the
// whole space (a cold compile).
type Region struct {
	prefixes []route.Prefix // the defining prefixes, sorted
	exact    map[route.Prefix]struct{}
	// covers holds every prefix that contains a defining prefix (itself
	// included): the FIB entries an LPM walk over the region must still see
	// as less-specific fallbacks.
	covers map[route.Prefix]struct{}
	// lens are the distinct defining prefix lengths, ascending.
	lens []uint8
}

// NewRegion returns the region covered by the given prefixes.
func NewRegion(prefixes []route.Prefix) *Region {
	r := &Region{
		exact:  make(map[route.Prefix]struct{}, len(prefixes)),
		covers: make(map[route.Prefix]struct{}, 4*len(prefixes)),
	}
	var haveLen [33]bool
	for _, p := range prefixes {
		p = route.MakePrefix(p.Addr, p.Len)
		if _, dup := r.exact[p]; dup {
			continue
		}
		r.exact[p] = struct{}{}
		r.prefixes = append(r.prefixes, p)
		haveLen[p.Len] = true
		for l := 0; l <= int(p.Len); l++ {
			r.covers[route.MakePrefix(p.Addr, uint8(l))] = struct{}{}
		}
	}
	sort.Slice(r.prefixes, func(i, j int) bool { return r.prefixes[i].Compare(r.prefixes[j]) < 0 })
	for l, ok := range haveLen {
		if ok {
			r.lens = append(r.lens, uint8(l))
		}
	}
	return r
}

// Overlaps reports whether q shares any address with the region: q contains
// a defining prefix, or a defining prefix contains q.
func (r *Region) Overlaps(q route.Prefix) bool {
	if r == nil {
		return true
	}
	q = route.MakePrefix(q.Addr, q.Len)
	if _, ok := r.covers[q]; ok {
		return true
	}
	for _, l := range r.lens {
		if l >= q.Len {
			break
		}
		if _, ok := r.exact[route.MakePrefix(q.Addr, l)]; ok {
			return true
		}
	}
	return false
}

// Match returns the region as a predicate over the destination address.
func (r *Region) Match(e *bdd.Engine) (bdd.Ref, error) {
	if r == nil {
		return bdd.True, nil
	}
	acc := bdd.False
	for _, p := range r.prefixes {
		m, err := PrefixMatch(e, OffDstIP, p)
		if err != nil {
			return bdd.False, err
		}
		if acc, err = e.Or(acc, m); err != nil {
			return bdd.False, err
		}
	}
	return acc, nil
}

// BuildFIB resolves a node's RIBs into a FIB. ribs are the protocol RIBs in
// any order (e.g. the BGP Loc-RIB and the OSPF RIB); connected and static
// routes come from the device config. For each prefix the
// lowest-administrative-distance protocol wins; ties within the winning
// protocol keep the full ECMP set. Next hops resolve to egress interfaces
// through the device's connected subnets; unresolvable next hops drop the
// route (and are reported).
func BuildFIB(dev *config.Device, ribs ...*route.RIB) (*FIB, []error) {
	return BuildFIBIn(dev, nil, ribs...)
}

// BuildFIBIn is BuildFIB restricted to the entries that intersect region
// (nil = all of them): exactly the entries a longest-prefix-match decision
// for an address inside the region can depend on.
func BuildFIBIn(dev *config.Device, region *Region, ribs ...*route.RIB) (*FIB, []error) {
	var errs []error
	type cand struct {
		ad    uint8
		entry FIBEntry
	}
	best := map[route.Prefix]*cand{}

	consider := func(p route.Prefix, ad uint8, e FIBEntry) {
		cur, ok := best[p]
		if !ok || ad < cur.ad {
			e.Prefix = p
			best[p] = &cand{ad: ad, entry: e}
			return
		}
		if ad == cur.ad && len(e.OutPorts) > 0 {
			// Same protocol tier: merge ECMP ports.
			cur.entry.OutPorts = append(cur.entry.OutPorts, e.OutPorts...)
		}
	}

	// Connected: local delivery happens THROUGH the owning interface, so
	// the entry records it and the compiler applies its egress ACL.
	connected := map[route.Prefix][]string{}
	for _, ifc := range dev.Interfaces {
		if ifc.Shutdown || ifc.IP == 0 {
			continue
		}
		connected[ifc.Subnet] = append(connected[ifc.Subnet], ifc.Name)
	}
	for pfx, ports := range connected {
		if !region.Overlaps(pfx) {
			continue
		}
		consider(pfx, route.Connected.AdminDistance(), FIBEntry{Local: true, OutPorts: dedupeSorted(ports)})
	}
	// Static.
	for _, sr := range dev.StaticRoutes {
		if !region.Overlaps(sr.Prefix) {
			continue
		}
		if sr.Drop {
			consider(sr.Prefix, route.Static.AdminDistance(), FIBEntry{Drop: true})
			continue
		}
		ifc := dev.InterfaceForAddr(sr.NextHop)
		if ifc == nil {
			errs = append(errs, fmt.Errorf("%s: static route %v next hop %s unresolvable",
				dev.Hostname, sr.Prefix, route.FormatAddr(sr.NextHop)))
			continue
		}
		consider(sr.Prefix, route.Static.AdminDistance(), FIBEntry{OutPorts: []string{ifc.Name}})
	}
	// Protocol RIBs.
	for _, rib := range ribs {
		if rib == nil {
			continue
		}
		rib.Range(func(pfx route.Prefix, rs []*route.Route) {
			if !region.Overlaps(pfx) {
				return
			}
			var ports []string
			ad := uint8(255)
			for _, r := range rs {
				if r.Protocol.AdminDistance() < ad {
					ad = r.Protocol.AdminDistance()
				}
				if r.NextHopNode == "" {
					// Locally originated (network statement or
					// aggregate): delivery is governed by the
					// connected route; aggregates without a
					// specific match are blackholes by design.
					continue
				}
				ifc := dev.InterfaceForAddr(r.NextHop)
				if ifc == nil {
					errs = append(errs, fmt.Errorf("%s: route %v next hop %s unresolvable",
						dev.Hostname, pfx, route.FormatAddr(r.NextHop)))
					continue
				}
				ports = append(ports, ifc.Name)
			}
			if len(ports) == 0 {
				// Only locally originated candidates: an active
				// aggregate installs a discard route for unmatched
				// traffic (standard aggregate behaviour).
				for _, r := range rs {
					if r.Protocol == route.Aggregate {
						consider(pfx, route.Aggregate.AdminDistance(), FIBEntry{Drop: true})
					}
				}
				return
			}
			consider(pfx, ad, FIBEntry{OutPorts: dedupeSorted(ports)})
		})
	}

	fib := &FIB{Node: dev.Hostname}
	prefixes := make([]route.Prefix, 0, len(best))
	for p := range best {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Compare(prefixes[j]) < 0 })
	for _, p := range prefixes {
		e := best[p].entry
		e.OutPorts = dedupeSorted(e.OutPorts)
		fib.Entries = append(fib.Entries, e)
	}
	// The RIBs were ranged in map order; report problems deterministically.
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return fib, errs
}

func dedupeSorted(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	sort.Strings(in)
	out := in[:1]
	for _, s := range in[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

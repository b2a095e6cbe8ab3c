package dataplane

import (
	"fmt"
	"reflect"
	"sort"

	"s2/internal/bdd"
	"s2/internal/config"
)

// PortPred holds the three per-port predicates of §4.3: the forwarding
// predicate p^fwd and the two ACL predicates p^in / p^out.
type PortPred struct {
	Fwd bdd.Ref
	In  bdd.Ref
	Out bdd.Ref
}

// NodeDP is one node's compiled data plane: everything needed to execute
// the symbolic forwarding step of equation (1). All refs live in the
// compiling engine.
type NodeDP struct {
	Name  string
	Ports map[string]*PortPred
	// Local is the set of packets delivered at this node (destination in
	// a connected prefix).
	Local bdd.Ref
	// Drop is the set of packets matching an explicit discard route.
	Drop bdd.Ref
	// MetaBit, when >= 0, is the waypoint metadata bit this node sets on
	// every packet it processes (§4.4's "write rule").
	MetaBit int
}

// CompileNode builds the node's predicates from its FIB and ACLs. The
// engine must be sized by the run's shared Layout. It is Patch over the
// whole destination space applied to a node that forwards nothing yet, so a
// cold compile and an incremental one share a single longest-prefix-match
// walk.
func CompileNode(e *bdd.Engine, dev *config.Device, fib *FIB) (*NodeDP, error) {
	n := &NodeDP{
		Name:    dev.Hostname,
		Ports:   map[string]*PortPred{},
		Local:   bdd.False,
		Drop:    bdd.False,
		MetaBit: -1,
	}

	// ACL predicates from interface configuration.
	for _, name := range dev.InterfaceNames() {
		ifc := dev.Interfaces[name]
		if ifc.Shutdown {
			continue
		}
		p := n.port(name)
		if ifc.InACL != "" {
			acl, ok := dev.ACLs[ifc.InACL]
			if !ok {
				return nil, fmt.Errorf("dataplane: %s: undefined ACL %q", dev.Hostname, ifc.InACL)
			}
			r, err := ACLMatch(e, acl)
			if err != nil {
				return nil, err
			}
			p.In = r
		}
		if ifc.OutACL != "" {
			acl, ok := dev.ACLs[ifc.OutACL]
			if !ok {
				return nil, fmt.Errorf("dataplane: %s: undefined ACL %q", dev.Hostname, ifc.OutACL)
			}
			r, err := ACLMatch(e, acl)
			if err != nil {
				return nil, err
			}
			p.Out = r
		}
	}
	if err := n.Patch(e, nil, fib); err != nil {
		return nil, err
	}
	return n, nil
}

// SameForwardingConfig reports whether two models of one device compile to
// the same data plane given the same routes: everything BuildFIB and
// CompileNode read from the model agrees — interface addressing, state and
// ACL bindings, the ACL definitions, and the static routes. Descriptions,
// OSPF costs and the control-plane sections are ignored; they reach the data
// plane only through the RIBs.
func SameForwardingConfig(a, b *config.Device) bool {
	if a.Hostname != b.Hostname || len(a.Interfaces) != len(b.Interfaces) {
		return false
	}
	for name, ia := range a.Interfaces {
		ib, ok := b.Interfaces[name]
		if !ok {
			return false
		}
		x, y := *ia, *ib
		x.Description, y.Description = "", ""
		x.OSPFCost, y.OSPFCost = 0, 0
		if x != y {
			return false
		}
	}
	return reflect.DeepEqual(a.ACLs, b.ACLs) && reflect.DeepEqual(a.StaticRoutes, b.StaticRoutes)
}

// port returns the named port's predicates, creating a port that forwards
// nothing and filters nothing on first use.
func (n *NodeDP) port(name string) *PortPred {
	p, ok := n.Ports[name]
	if !ok {
		p = &PortPred{Fwd: bdd.False, In: bdd.True, Out: bdd.True}
		n.Ports[name] = p
	}
	return p
}

// Patch re-derives the node's forwarding predicates inside region and leaves
// them untouched outside it. fib must hold every FIB entry that intersects
// the region (BuildFIBIn with the same region); the ACL predicates are not
// revisited, so a node whose ACLs or interfaces changed is compiled afresh
// instead.
//
// With R the region's predicate, R is first cleared out of every port's Fwd
// and out of Local and Drop, then the longest-prefix-match walk runs over
// fib — most specific entry first, each claiming eff = (match ∖ seen) ∧ R.
// This is exact: for an address x in R the winning entry is the longest FIB
// prefix containing x, and every prefix containing x intersects R, so the
// walk sees all candidates; for x outside R no entry the change touched can
// contain x (its whole match lies inside R), so the old winner stands.
// ROBDD canonicity then makes the patched predicates node-for-node equal to
// a cold CompileNode of the same state. Patch only reads the current RIB
// state inside R, so re-running it after a failure is safe.
func (n *NodeDP) Patch(e *bdd.Engine, region *Region, fib *FIB) error {
	within, err := region.Match(e)
	if err != nil {
		return err
	}
	for _, p := range n.Ports {
		if p.Fwd, err = e.Diff(p.Fwd, within); err != nil {
			return err
		}
	}
	if n.Local, err = e.Diff(n.Local, within); err != nil {
		return err
	}
	if n.Drop, err = e.Diff(n.Drop, within); err != nil {
		return err
	}

	// Forwarding predicates with longest-prefix-match semantics: walk
	// entries from most to least specific, masking already-covered
	// destinations.
	entries := append([]FIBEntry(nil), fib.Entries...)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Prefix.Len != entries[j].Prefix.Len {
			return entries[i].Prefix.Len > entries[j].Prefix.Len
		}
		return entries[i].Prefix.Compare(entries[j].Prefix) < 0
	})
	seen := bdd.False
	for _, entry := range entries {
		match, err := PrefixMatch(e, OffDstIP, entry.Prefix)
		if err != nil {
			return err
		}
		eff, err := e.Diff(match, seen)
		if err != nil {
			return err
		}
		if eff, err = e.And(eff, within); err != nil {
			return err
		}
		if eff != bdd.False {
			switch {
			case entry.Local:
				// Delivery leaves through the connected interface: its
				// egress ACL gates local delivery; denied packets drop.
				delivered := eff
				if len(entry.OutPorts) > 0 {
					outPerm := bdd.False
					for _, out := range entry.OutPorts {
						outPerm, err = e.Or(outPerm, n.port(out).Out)
						if err != nil {
							return err
						}
					}
					delivered, err = e.And(eff, outPerm)
					if err != nil {
						return err
					}
					var denied bdd.Ref
					denied, err = e.Diff(eff, outPerm)
					if err != nil {
						return err
					}
					n.Drop, err = e.Or(n.Drop, denied)
					if err != nil {
						return err
					}
				}
				n.Local, err = e.Or(n.Local, delivered)
			case entry.Drop:
				n.Drop, err = e.Or(n.Drop, eff)
			default:
				for _, out := range entry.OutPorts {
					p := n.port(out)
					p.Fwd, err = e.Or(p.Fwd, eff)
					if err != nil {
						return err
					}
				}
			}
			if err != nil {
				return err
			}
		}
		seen, err = e.Or(seen, match)
		if err != nil {
			return err
		}
	}
	return nil
}

// StepResult is the outcome of one symbolic forwarding step at a node.
type StepResult struct {
	// Local packets were delivered at this node.
	Local bdd.Ref
	// Dropped packets hit an explicit discard, an ACL deny, or had no
	// matching route (all Blackhole final states).
	Dropped bdd.Ref
	// Out maps egress port → the transformed packet of equation (1):
	// pkt ∧ p1^in ∧ p2^fwd ∧ p2^out.
	Out map[string]bdd.Ref
}

// Forward executes one step of symbolic forwarding: the packet pkt arrives
// at port inPort ("" when injected at this node as a source). The engine
// must be the one the node was compiled into.
func (n *NodeDP) Forward(e *bdd.Engine, pkt bdd.Ref, inPort string) (*StepResult, error) {
	res := &StepResult{Local: bdd.False, Dropped: bdd.False, Out: map[string]bdd.Ref{}}

	// Input ACL.
	in := pkt
	if inPort != "" {
		if p, ok := n.Ports[inPort]; ok && p.In != bdd.True {
			var err error
			in, err = e.And(pkt, p.In)
			if err != nil {
				return nil, err
			}
			denied, err := e.Diff(pkt, p.In)
			if err != nil {
				return nil, err
			}
			res.Dropped, err = e.Or(res.Dropped, denied)
			if err != nil {
				return nil, err
			}
		}
	}
	if in == bdd.False {
		return res, nil
	}

	// Waypoint write rule.
	if n.MetaBit >= 0 {
		var err error
		in, err = e.SetVar(in, OffMeta+n.MetaBit, true)
		if err != nil {
			return nil, err
		}
	}

	var err error
	// Local delivery.
	res.Local, err = e.And(in, n.Local)
	if err != nil {
		return nil, err
	}
	// Explicit discards.
	discard, err := e.And(in, n.Drop)
	if err != nil {
		return nil, err
	}
	res.Dropped, err = e.Or(res.Dropped, discard)
	if err != nil {
		return nil, err
	}

	// Forwarding per port: pkt ∧ p^fwd ∧ p^out; the p^fwd∧¬p^out
	// remainder is an ACL blackhole.
	routed := bdd.False
	ports := make([]string, 0, len(n.Ports))
	for name := range n.Ports {
		ports = append(ports, name)
	}
	sort.Strings(ports)
	for _, name := range ports {
		p := n.Ports[name]
		if p.Fwd == bdd.False {
			continue
		}
		fwd, err := e.And(in, p.Fwd)
		if err != nil {
			return nil, err
		}
		if fwd == bdd.False {
			continue
		}
		routed, err = e.Or(routed, fwd)
		if err != nil {
			return nil, err
		}
		out, err := e.And(fwd, p.Out)
		if err != nil {
			return nil, err
		}
		if out != bdd.False {
			res.Out[name] = out
		}
		aclDrop, err := e.Diff(fwd, p.Out)
		if err != nil {
			return nil, err
		}
		res.Dropped, err = e.Or(res.Dropped, aclDrop)
		if err != nil {
			return nil, err
		}
	}

	// No matching route at all: blackhole.
	matched, err := e.OrAll(res.Local, n.Drop, routed)
	if err != nil {
		return nil, err
	}
	unrouted, err := e.Diff(in, matched)
	if err != nil {
		return nil, err
	}
	res.Dropped, err = e.Or(res.Dropped, unrouted)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ModelBytes charges the node's predicate count; per-engine node growth is
// charged separately via the engine's grow observer.
func (n *NodeDP) ModelBytes() int64 {
	return int64(len(n.Ports))*48 + 64
}

// Serialize renders the node's predicates — Local, Drop, then each port's
// Fwd/In/Out in port-name order — as one canonical byte string: two nodes
// that forward identically serialize identically, whichever engine holds
// them and however its table got there. It is a test and debugging oracle —
// the equality check between an incrementally patched data plane and a cold
// compile — and nothing on the verification path calls it.
func (n *NodeDP) Serialize(e *bdd.Engine) []byte {
	ports := make([]string, 0, len(n.Ports))
	for name := range n.Ports {
		ports = append(ports, name)
	}
	sort.Strings(ports)
	refs := []bdd.Ref{n.Local, n.Drop}
	var out []byte
	for _, name := range ports {
		p := n.Ports[name]
		refs = append(refs, p.Fwd, p.In, p.Out)
		out = append(out, name...)
		out = append(out, 0)
	}
	return append(out, e.SerializeSet(refs)...)
}

// RootRefs returns every BDD ref the node holds, for use as GC roots.
func (n *NodeDP) RootRefs() []bdd.Ref {
	out := []bdd.Ref{n.Local, n.Drop}
	for _, p := range n.Ports {
		out = append(out, p.Fwd, p.In, p.Out)
	}
	return out
}

// Remap rewrites the node's refs after an engine GC.
func (n *NodeDP) Remap(f func(bdd.Ref) bdd.Ref) {
	n.Local, n.Drop = f(n.Local), f(n.Drop)
	for _, p := range n.Ports {
		p.Fwd, p.In, p.Out = f(p.Fwd), f(p.In), f(p.Out)
	}
}

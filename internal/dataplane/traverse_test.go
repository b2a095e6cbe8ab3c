package dataplane

import (
	"testing"

	"s2/internal/bdd"
	"s2/internal/config"
	"s2/internal/route"
	"s2/internal/topology"
)

// chainSetup builds a 3-node chain r1-r2-r3 where r3 owns 10.8.0.0/24 and
// every node has a (manually constructed) BGP RIB pointing toward r3.
// Returns the compiled per-node data planes on a single engine.
func chainSetup(t *testing.T, mutate func(name string, rib *route.RIB), cfgMutate func(map[string]string)) (
	*bdd.Engine, map[string]*NodeDP, AdjacencyIndex) {
	t.Helper()
	texts := map[string]string{
		"r1.cfg": `hostname r1
interface eth0
 ip address 10.0.0.0/31
`,
		"r2.cfg": `hostname r2
interface eth0
 ip address 10.0.0.1/31
interface eth1
 ip address 10.0.1.0/31
`,
		"r3.cfg": `hostname r3
interface eth0
 ip address 10.0.1.1/31
interface vlan10
 ip address 10.8.0.1/24
`,
	}
	if cfgMutate != nil {
		cfgMutate(texts)
	}
	snap, err := config.ParseTexts(texts)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := topology.Build(snap)
	if err != nil {
		t.Fatal(err)
	}

	ribs := map[string]*route.RIB{
		"r1": route.NewRIB(), "r2": route.NewRIB(), "r3": route.NewRIB(),
	}
	dst := route.MustParsePrefix("10.8.0.0/24")
	ribs["r1"].SetRoutes(dst, []*route.Route{bgpRoute("10.8.0.0/24", "10.0.0.1", "r2")})
	ribs["r2"].SetRoutes(dst, []*route.Route{bgpRoute("10.8.0.0/24", "10.0.1.1", "r3")})
	if mutate != nil {
		for name, rib := range ribs {
			mutate(name, rib)
		}
	}

	e := Layout{MetaBits: 4}.NewEngine(0)
	nodes := map[string]*NodeDP{}
	for name, dev := range snap.Devices {
		fib, errs := BuildFIB(dev, ribs[name])
		if len(errs) != 0 {
			t.Fatalf("%s fib errors: %v", name, errs)
		}
		n, err := CompileNode(e, dev, fib)
		if err != nil {
			t.Fatal(err)
		}
		nodes[name] = n
	}
	return e, nodes, BuildAdjacencyIndex(net)
}

func collectOutcomes(t *testing.T, e *bdd.Engine, nodes map[string]*NodeDP, adj AdjacencyIndex,
	source string, pkt bdd.Ref, q *Query) *Collector {
	t.Helper()
	col := NewCollector(e, q)
	isDest := destPredicate(q)
	if err := Traverse(e, nodes, adj, source, pkt, q.EffectiveMaxHops(), isDest, col.Add); err != nil {
		t.Fatal(err)
	}
	return col
}

func destPredicate(q *Query) func(string) bool {
	if len(q.Dests) == 0 {
		return nil
	}
	set := map[string]bool{}
	for _, d := range q.Dests {
		set[d] = true
	}
	return func(n string) bool { return set[n] }
}

func TestTraverseReachability(t *testing.T) {
	e, nodes, adj := chainSetup(t, nil, nil)
	dst := route.MustParsePrefix("10.8.0.0/24")
	q := &Query{Header: &HeaderSpace{DstPrefix: &dst}, Sources: []string{"r1"}, Dests: []string{"r3"}}
	pkt, err := q.Header.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	col := collectOutcomes(t, e, nodes, adj, "r1", pkt, q)
	arrived := col.Arrived("r3")
	if arrived == bdd.False {
		t.Fatal("packets must arrive at r3")
	}
	// Everything injected arrives (no filters on the path).
	if arrived != pkt {
		t.Fatalf("entire set should arrive: satcount %g vs %g",
			e.SatCount(arrived), e.SatCount(pkt))
	}
	vios, err := col.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) != 0 {
		t.Fatalf("violations: %v", vios)
	}
}

func TestTraverseBlackholeNoRoute(t *testing.T) {
	e, nodes, adj := chainSetup(t, nil, nil)
	// Destination outside everyone's FIB.
	other := route.MustParsePrefix("172.16.0.0/16")
	q := &Query{Header: &HeaderSpace{DstPrefix: &other}, Sources: []string{"r1"}}
	pkt, _ := q.Header.Compile(e)
	col := collectOutcomes(t, e, nodes, adj, "r1", pkt, q)
	if col.StateSet(Blackhole) == bdd.False {
		t.Fatal("unrouted traffic must blackhole")
	}
	vios, _ := col.Report()
	found := false
	for _, v := range vios {
		if v.Kind == "blackhole" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected blackhole violation: %v", vios)
	}
}

func TestTraverseLoopDetection(t *testing.T) {
	// Create a forwarding loop: r2 routes 10.9/24 to r3 and r3 routes it
	// back to r2.
	loopPfx := route.MustParsePrefix("10.9.0.0/24")
	e, nodes, adj := chainSetup(t, func(name string, rib *route.RIB) {
		switch name {
		case "r1":
			rib.SetRoutes(loopPfx, []*route.Route{bgpRoute("10.9.0.0/24", "10.0.0.1", "r2")})
		case "r2":
			rib.SetRoutes(loopPfx, []*route.Route{bgpRoute("10.9.0.0/24", "10.0.1.1", "r3")})
		case "r3":
			rib.SetRoutes(loopPfx, []*route.Route{bgpRoute("10.9.0.0/24", "10.0.1.0", "r2")})
		}
	}, nil)
	q := &Query{Header: &HeaderSpace{DstPrefix: &loopPfx}, Sources: []string{"r1"}, MaxHops: 16}
	pkt, _ := q.Header.Compile(e)
	col := collectOutcomes(t, e, nodes, adj, "r1", pkt, q)
	if col.StateSet(Loop) == bdd.False {
		t.Fatal("looping traffic must be detected")
	}
	vios, _ := col.Report()
	if len(vios) == 0 || vios[0].Kind != "loop" {
		t.Fatalf("expected loop violation: %v", vios)
	}
}

func TestTraverseACLBlackhole(t *testing.T) {
	// r2 denies dst 10.8.0.0/25 inbound on eth0: half the /24 blackholes,
	// half arrives — and multipath consistency is NOT violated (the sets
	// do not overlap).
	e, nodes, adj := chainSetup(t, nil, func(texts map[string]string) {
		texts["r2.cfg"] = `hostname r2
interface eth0
 ip address 10.0.0.1/31
 ip access-group FILTER in
interface eth1
 ip address 10.0.1.0/31
ip access-list FILTER
 deny ip any 10.8.0.0/25
 permit ip any any
`
	})
	dst := route.MustParsePrefix("10.8.0.0/24")
	q := &Query{Header: &HeaderSpace{DstPrefix: &dst}, Sources: []string{"r1"}, Dests: []string{"r3"}}
	pkt, _ := q.Header.Compile(e)
	col := collectOutcomes(t, e, nodes, adj, "r1", pkt, q)

	arrived := col.Arrived("r3")
	dropped := col.StateSet(Blackhole)
	if arrived == bdd.False || dropped == bdd.False {
		t.Fatal("both halves expected")
	}
	if e.SatCount(arrived) != e.SatCount(dropped) {
		t.Fatalf("halves should be equal: %g vs %g", e.SatCount(arrived), e.SatCount(dropped))
	}
	if overlap, _ := e.And(arrived, dropped); overlap != bdd.False {
		t.Fatal("halves must be disjoint")
	}
	vios, _ := col.Report()
	for _, v := range vios {
		if v.Kind == "multipath-consistency" {
			t.Fatalf("disjoint outcomes are consistent: %v", v)
		}
	}
}

func TestTraverseWaypoint(t *testing.T) {
	e, nodes, adj := chainSetup(t, nil, nil)
	dst := route.MustParsePrefix("10.8.0.0/24")
	q := &Query{
		Header:   &HeaderSpace{DstPrefix: &dst},
		Sources:  []string{"r1"},
		Dests:    []string{"r3"},
		Transits: []string{"r2"},
	}
	if err := q.Validate(Layout{MetaBits: 4}); err != nil {
		t.Fatal(err)
	}
	// Wire the write rule: r2 sets bit 0.
	nodes["r2"].MetaBit = q.MetaBitFor("r2")
	pkt, _ := q.Header.Compile(e)
	// Inject with the waypoint bit cleared.
	nbit, _ := e.NVar(OffMeta + 0)
	pkt, _ = e.And(pkt, nbit)
	col := collectOutcomes(t, e, nodes, adj, "r1", pkt, q)
	vios, err := col.Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vios {
		if v.Kind == "waypoint" {
			t.Fatalf("path goes through r2; no violation expected: %v", v)
		}
	}

	// Now require an off-path node as transit: nothing sets the bit, so
	// arrivals must be flagged. Unwire r2's write rule first.
	nodes["r2"].MetaBit = -1
	q2 := &Query{
		Header:   &HeaderSpace{DstPrefix: &dst},
		Sources:  []string{"r1"},
		Dests:    []string{"r3"},
		Transits: []string{"offpath"},
	}
	pkt2, _ := q.Header.Compile(e)
	pkt2, _ = e.And(pkt2, nbit)
	col2 := collectOutcomes(t, e, nodes, adj, "r1", pkt2, q2)
	vios2, _ := col2.Report()
	found := false
	for _, v := range vios2 {
		if v.Kind == "waypoint" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bypassed waypoint must be flagged: %v", vios2)
	}
}

func TestTraverseMultipathInconsistency(t *testing.T) {
	// r2 has two ECMP paths for the /24: one to r3 (arrives) and one
	// back to r1 (loops). The same packets both arrive and loop →
	// multipath-consistency violation.
	dst := route.MustParsePrefix("10.8.0.0/24")
	e, nodes, adj := chainSetup(t, func(name string, rib *route.RIB) {
		if name == "r2" {
			rib.SetRoutes(dst, []*route.Route{
				bgpRoute("10.8.0.0/24", "10.0.1.1", "r3"),
				bgpRoute("10.8.0.0/24", "10.0.0.0", "r1"),
			})
		}
	}, nil)
	q := &Query{Header: &HeaderSpace{DstPrefix: &dst}, Sources: []string{"r1"}, Dests: []string{"r3"}, MaxHops: 8}
	pkt, _ := q.Header.Compile(e)
	col := collectOutcomes(t, e, nodes, adj, "r1", pkt, q)
	vios, _ := col.Report()
	found := false
	for _, v := range vios {
		if v.Kind == "multipath-consistency" && v.Source == "r1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected multipath violation: %v", vios)
	}
}

func TestTraverseUnknownSource(t *testing.T) {
	e, nodes, adj := chainSetup(t, nil, nil)
	err := Traverse(e, nodes, adj, "ghost", bdd.True, 8, nil, func(Outcome) error { return nil })
	if err == nil {
		t.Fatal("unknown source must error")
	}
}

func TestCollectorRawRoundTrip(t *testing.T) {
	// Worker engine produces an outcome; controller engine absorbs it via
	// the set-encoded harvest path.
	layout := Layout{MetaBits: 2}
	worker := layout.NewEngine(0)
	controller := layout.NewEngine(0)
	dst := route.MustParsePrefix("10.8.0.0/24")
	pkt, err := PrefixMatch(worker, OffDstIP, dst)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Dests: []string{"r3"}}
	col := NewCollector(controller, q)
	metas := []RawOutcome{{Source: "r1", Node: "r3", State: Arrive}}
	outs, err := DecodeOutcomes(controller, worker.SerializeSet([]bdd.Ref{pkt}), metas)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if err := col.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	if col.Count() != 1 {
		t.Fatal("count")
	}
	if controller.SatCount(col.Arrived("r3")) != worker.SatCount(pkt) {
		t.Fatal("cross-engine transfer must preserve the packet set")
	}
	// Garbage packet fails.
	if _, err := DecodeOutcomes(controller, []byte{1, 2}, []RawOutcome{{Source: "x", Node: "y"}}); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestReachabilityUnreachableViolation(t *testing.T) {
	e, nodes, adj := chainSetup(t, nil, nil)
	// Query a dest that can never receive: r1 sends to 172.16/16 but
	// dest r3 holds 10.8/24.
	other := route.MustParsePrefix("172.16.0.0/16")
	q := &Query{Header: &HeaderSpace{DstPrefix: &other}, Sources: []string{"r1"}, Dests: []string{"r3"}}
	pkt, _ := q.Header.Compile(e)
	col := collectOutcomes(t, e, nodes, adj, "r1", pkt, q)
	vios, _ := col.Report()
	found := false
	for _, v := range vios {
		if v.Kind == "unreachable" && v.Node == "r3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected unreachable violation: %v", vios)
	}
}

// TestTraverseConservation: every injected packet reaches exactly the
// final states that cover it — the union of all outcome sets equals the
// injected set. (ECMP may assign one packet several outcomes, so outcomes
// can overlap, but nothing may be lost or invented beyond the injection.)
func TestTraverseConservation(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		e, nodes, adj := chainSetup(t, func(name string, rib *route.RIB) {
			// Add per-trial variation: extra prefixes with drops/loops.
			switch trial {
			case 1:
				if name == "r1" {
					rib.SetRoutes(route.MustParsePrefix("10.50.0.0/16"), []*route.Route{
						bgpRoute("10.50.0.0/16", "10.0.0.1", "r2"),
					})
				}
			case 2:
				if name == "r2" {
					rib.SetRoutes(route.MustParsePrefix("10.60.0.0/16"), []*route.Route{
						bgpRoute("10.60.0.0/16", "10.0.0.0", "r1"),
					})
				}
				if name == "r1" {
					rib.SetRoutes(route.MustParsePrefix("10.60.0.0/16"), []*route.Route{
						bgpRoute("10.60.0.0/16", "10.0.0.1", "r2"),
					})
				}
			}
		}, nil)
		pkt := bdd.True // the full header space
		union := bdd.False
		err := Traverse(e, nodes, adj, "r1", pkt, 12, nil, func(o Outcome) error {
			var err error
			union, err = e.Or(union, o.Packet)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if union != pkt {
			t.Fatalf("trial %d: outcomes cover %g of %g assignments", trial,
				e.SatCount(union), e.SatCount(pkt))
		}
	}
}

// TestTraverseDisjointStatesWithoutECMP: on a single-path topology each
// packet has exactly one fate — outcome sets are pairwise disjoint.
func TestTraverseDisjointStatesWithoutECMP(t *testing.T) {
	e, nodes, adj := chainSetup(t, nil, nil)
	var outs []Outcome
	if err := Traverse(e, nodes, adj, "r1", bdd.True, 12, nil, func(o Outcome) error {
		outs = append(outs, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(outs); i++ {
		for j := i + 1; j < len(outs); j++ {
			overlap, err := e.And(outs[i].Packet, outs[j].Packet)
			if err != nil {
				t.Fatal(err)
			}
			if overlap != bdd.False {
				t.Fatalf("outcomes %d (%s@%s) and %d (%s@%s) overlap on a single-path topology",
					i, outs[i].State, outs[i].Node, j, outs[j].State, outs[j].Node)
			}
		}
	}
}

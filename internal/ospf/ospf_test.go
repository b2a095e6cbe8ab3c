package ospf

import (
	"fmt"
	"testing"

	"s2/internal/config"
	"s2/internal/metrics"
	"s2/internal/route"
	"s2/internal/topology"
)

func buildProcs(t *testing.T, texts map[string]string) map[string]*Process {
	t.Helper()
	snap, err := config.ParseTexts(texts)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := topology.Build(snap)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	procs := map[string]*Process{}
	for name, dev := range snap.Devices {
		if dev.OSPF != nil {
			procs[name] = NewProcess(dev, net.Adjacencies[name], nil)
		}
	}
	return procs
}

// runFlooding runs rounds of LSDB exchange + SPF until quiescent.
func runFlooding(t *testing.T, procs map[string]*Process) {
	t.Helper()
	type st struct {
		ver  uint64
		seen bool
	}
	pulls := map[[2]string]*st{}
	for round := 0; round < 64; round++ {
		changed := false
		for name, p := range procs {
			for _, nb := range p.NeighborNames() {
				exp, ok := procs[nb]
				if !ok {
					continue
				}
				key := [2]string{name, nb}
				s := pulls[key]
				if s == nil {
					s = &st{}
					pulls[key] = s
				}
				lsas, ver, fresh := exp.ExportsTo(name, s.ver, s.seen)
				if fresh {
					s.ver, s.seen = ver, true
					if p.MergeLSAs(lsas) {
						changed = true
					}
				}
			}
			if p.RunSPF() {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
	t.Fatal("flooding did not converge")
}

// lineTexts builds a chain r1-r2-r3 with a loopback on r1 and per-link
// costs.
func lineTexts(cost12, cost23 uint32) map[string]string {
	return map[string]string{
		"r1.cfg": fmt.Sprintf(`hostname r1
interface eth0
 ip address 10.0.0.0/31
 ip ospf cost %d
interface lo0
 ip address 192.168.0.1/32
router ospf 1
 router-id 0.0.0.1
 maximum-paths 4
`, cost12),
		"r2.cfg": fmt.Sprintf(`hostname r2
interface eth0
 ip address 10.0.0.1/31
 ip ospf cost %d
interface eth1
 ip address 10.0.1.0/31
 ip ospf cost %d
router ospf 1
 router-id 0.0.0.2
 maximum-paths 4
`, cost12, cost23),
		"r3.cfg": fmt.Sprintf(`hostname r3
interface eth0
 ip address 10.0.1.1/31
 ip ospf cost %d
router ospf 1
 router-id 0.0.0.3
 maximum-paths 4
`, cost23),
	}
}

func TestChainSPF(t *testing.T) {
	procs := buildProcs(t, lineTexts(10, 20))
	runFlooding(t, procs)

	lo := route.MustParsePrefix("192.168.0.1/32")
	got := procs["r3"].Routes().Get(lo)
	if len(got) != 1 {
		t.Fatalf("r3 routes to loopback = %v", got)
	}
	r := got[0]
	if r.NextHopNode != "r2" || r.Protocol != route.OSPF {
		t.Errorf("route = %+v", r)
	}
	// Cost: r3->r2 (20) + r2->r1 (10) + stub cost (1, default lo0 cost).
	if r.Metric != 31 {
		t.Errorf("metric = %d, want 31", r.Metric)
	}
	// r2 reaches it directly.
	got2 := procs["r2"].Routes().Get(lo)
	if len(got2) != 1 || got2[0].NextHopNode != "r1" || got2[0].Metric != 11 {
		t.Errorf("r2 route = %v", got2)
	}
	// r1's own prefix is not installed as an OSPF route.
	if len(procs["r1"].Routes().Get(lo)) != 0 {
		t.Error("local prefixes are covered by connected routes, not OSPF")
	}
}

func TestECMPAcrossParallelPaths(t *testing.T) {
	// Diamond: r1-(r2,r3)-r4 equal costs; r4 has a loopback.
	texts := map[string]string{
		"r1.cfg": `hostname r1
interface a
 ip address 10.0.1.0/31
interface b
 ip address 10.0.2.0/31
router ospf 1
 router-id 0.0.0.1
 maximum-paths 4
`,
		"r2.cfg": `hostname r2
interface a
 ip address 10.0.1.1/31
interface b
 ip address 10.0.3.0/31
router ospf 1
 router-id 0.0.0.2
 maximum-paths 4
`,
		"r3.cfg": `hostname r3
interface a
 ip address 10.0.2.1/31
interface b
 ip address 10.0.4.0/31
router ospf 1
 router-id 0.0.0.3
 maximum-paths 4
`,
		"r4.cfg": `hostname r4
interface a
 ip address 10.0.3.1/31
interface b
 ip address 10.0.4.1/31
interface lo0
 ip address 192.168.4.1/32
router ospf 1
 router-id 0.0.0.4
 maximum-paths 4
`,
	}
	procs := buildProcs(t, texts)
	runFlooding(t, procs)
	got := procs["r1"].Routes().Get(route.MustParsePrefix("192.168.4.1/32"))
	if len(got) != 2 {
		t.Fatalf("want 2 ECMP paths, got %v", got)
	}
	hops := map[string]bool{}
	for _, r := range got {
		hops[r.NextHopNode] = true
	}
	if !hops["r2"] || !hops["r3"] {
		t.Errorf("hops = %v", hops)
	}

	// With maximum-paths 1 only one survives (deterministic).
	texts["r1.cfg"] = `hostname r1
interface a
 ip address 10.0.1.0/31
interface b
 ip address 10.0.2.0/31
router ospf 1
 router-id 0.0.0.1
 maximum-paths 1
`
	procs1 := buildProcs(t, texts)
	runFlooding(t, procs1)
	got1 := procs1["r1"].Routes().Get(route.MustParsePrefix("192.168.4.1/32"))
	if len(got1) != 1 || got1[0].NextHopNode != "r2" {
		t.Fatalf("maximum-paths 1: %v", got1)
	}
}

func TestCostsSteerSPF(t *testing.T) {
	// Same diamond but the r1-r2 leg is expensive: all traffic via r3.
	texts := map[string]string{
		"r1.cfg": `hostname r1
interface a
 ip address 10.0.1.0/31
 ip ospf cost 100
interface b
 ip address 10.0.2.0/31
router ospf 1
 router-id 0.0.0.1
 maximum-paths 4
`,
		"r2.cfg": `hostname r2
interface a
 ip address 10.0.1.1/31
interface b
 ip address 10.0.3.0/31
router ospf 1
 router-id 0.0.0.2
 maximum-paths 4
`,
		"r3.cfg": `hostname r3
interface a
 ip address 10.0.2.1/31
interface b
 ip address 10.0.4.0/31
router ospf 1
 router-id 0.0.0.3
 maximum-paths 4
`,
		"r4.cfg": `hostname r4
interface a
 ip address 10.0.3.1/31
interface b
 ip address 10.0.4.1/31
interface lo0
 ip address 192.168.4.1/32
router ospf 1
 router-id 0.0.0.4
 maximum-paths 4
`,
	}
	procs := buildProcs(t, texts)
	runFlooding(t, procs)
	got := procs["r1"].Routes().Get(route.MustParsePrefix("192.168.4.1/32"))
	if len(got) != 1 || got[0].NextHopNode != "r3" {
		t.Fatalf("expensive leg should lose: %v", got)
	}
}

func TestPassiveInterfaceAdvertisesButNoAdjacency(t *testing.T) {
	texts := lineTexts(10, 20)
	// Make r2's interface toward r3 passive: r3 is cut off from r1's
	// loopback (no adjacency), but r2 still advertises the 10.0.1.0/31
	// stub so r1 can reach that subnet.
	texts["r2.cfg"] = `hostname r2
interface eth0
 ip address 10.0.0.1/31
 ip ospf cost 10
interface eth1
 ip address 10.0.1.0/31
 ip ospf cost 20
router ospf 1
 router-id 0.0.0.2
 maximum-paths 4
 passive-interface eth1
`
	procs := buildProcs(t, texts)
	runFlooding(t, procs)
	if got := procs["r3"].Routes().Get(route.MustParsePrefix("192.168.0.1/32")); len(got) != 0 {
		t.Fatalf("passive interface must not form adjacency: %v", got)
	}
	if got := procs["r1"].Routes().Get(route.MustParsePrefix("10.0.1.0/31")); len(got) != 1 {
		t.Fatalf("passive subnet still advertised as stub: %v", got)
	}
}

func TestNetworkStatementLimitsScope(t *testing.T) {
	texts := lineTexts(10, 20)
	// r1 enables OSPF only on the link subnet: the loopback is not
	// advertised.
	texts["r1.cfg"] = `hostname r1
interface eth0
 ip address 10.0.0.0/31
 ip ospf cost 10
interface lo0
 ip address 192.168.0.1/32
router ospf 1
 router-id 0.0.0.1
 network 10.0.0.0/16 area 0
`
	procs := buildProcs(t, texts)
	runFlooding(t, procs)
	if got := procs["r2"].Routes().Get(route.MustParsePrefix("192.168.0.1/32")); len(got) != 0 {
		t.Fatalf("un-enabled loopback must not be advertised: %v", got)
	}
}

func TestPrefixFilterShardsSPF(t *testing.T) {
	procs := buildProcs(t, lineTexts(10, 20))
	lo := route.MustParsePrefix("192.168.0.1/32")
	for _, p := range procs {
		p.SetPrefixFilter(func(x route.Prefix) bool { return x != lo })
	}
	runFlooding(t, procs)
	if got := procs["r3"].Routes().Get(lo); len(got) != 0 {
		t.Fatal("filtered prefix must not be installed")
	}
	if procs["r3"].Routes().Len() == 0 {
		t.Fatal("unfiltered prefixes still installed")
	}
}

func TestMemoryGauges(t *testing.T) {
	snap, err := config.ParseTexts(lineTexts(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.NewTracker("w", 0)
	procs := map[string]*Process{}
	for name, dev := range snap.Devices {
		procs[name] = NewProcess(dev, net.Adjacencies[name], tr)
	}
	runFlooding(t, procs)
	if tr.Current() <= 0 {
		t.Fatalf("LSDB memory should be tracked: %s", tr.Snapshot())
	}
}

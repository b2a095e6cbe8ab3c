package bgp

import (
	"fmt"
	"testing"

	"s2/internal/config"
	"s2/internal/metrics"
	"s2/internal/route"
	"s2/internal/topology"
)

// buildProcs parses configs, derives the topology, and builds one Process
// per BGP-speaking device.
func buildProcs(t *testing.T, texts map[string]string) (map[string]*Process, *topology.Network) {
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
		if dev.BGP != nil {
			procs[name] = NewProcess(dev, net.Sessions[name], nil)
		}
	}
	return procs, net
}

// runFixpoint executes the paper's Algorithm 1 in-process: rounds in
// which each node in turn pulls, imports and decides, until no node
// changes. Every import runs the per-session delta oracle.
func runFixpoint(t *testing.T, procs map[string]*Process) int {
	t.Helper()
	return newFixpoint(procs, sortedProcNames(procs), false).converge(t)
}

// chainConfig builds a linear chain r1-r2-...-rn; r1 announces 10.8.0.0/24.
func chainConfig(n int) map[string]string {
	texts := map[string]string{}
	for i := 1; i <= n; i++ {
		cfg := fmt.Sprintf("hostname r%d\n", i)
		if i > 1 {
			cfg += fmt.Sprintf("interface left\n ip address 10.0.%d.1/31\n", i-1)
		}
		if i < n {
			cfg += fmt.Sprintf("interface right\n ip address 10.0.%d.0/31\n", i)
		}
		cfg += fmt.Sprintf("router bgp %d\n router-id 0.0.0.%d\n", 65000+i, i)
		if i == 1 {
			cfg += "interface vlan10\n ip address 10.8.0.1/24\nrouter bgp 65001\n network 10.8.0.0/24\n"
		}
		if i > 1 {
			cfg += fmt.Sprintf("router bgp %d\n neighbor 10.0.%d.0 remote-as %d\n", 65000+i, i-1, 65000+i-1)
		}
		if i < n {
			cfg += fmt.Sprintf("router bgp %d\n neighbor 10.0.%d.1 remote-as %d\n", 65000+i, i, 65000+i+1)
		}
		texts[fmt.Sprintf("r%d.cfg", i)] = cfg
	}
	return texts
}

func TestChainPropagation(t *testing.T) {
	procs, _ := buildProcs(t, chainConfig(4))
	runFixpoint(t, procs)
	pfx := route.MustParsePrefix("10.8.0.0/24")

	r1 := procs["r1"].LocRIB().Get(pfx)
	if len(r1) != 1 || r1[0].NextHopNode != "" {
		t.Fatalf("r1 should originate locally: %v", r1)
	}
	r4 := procs["r4"].LocRIB().Get(pfx)
	if len(r4) != 1 {
		t.Fatalf("r4 routes = %v", r4)
	}
	got := r4[0]
	if got.NextHopNode != "r3" {
		t.Errorf("r4 next hop node = %q", got.NextHopNode)
	}
	want := []uint32{65003, 65002, 65001}
	if len(got.ASPath) != 3 {
		t.Fatalf("AS path = %v, want %v", got.ASPath, want)
	}
	for i := range want {
		if got.ASPath[i] != want[i] {
			t.Fatalf("AS path = %v, want %v", got.ASPath, want)
		}
	}
	if got.LocalPref != 100 || got.Protocol != route.BGP {
		t.Errorf("attrs: %+v", got)
	}
}

func TestNetworkStatementRequiresLocalRoute(t *testing.T) {
	// r1 announces a network with no matching connected/static route:
	// nothing should be originated.
	procs, _ := buildProcs(t, map[string]string{"r1.cfg": `hostname r1
interface eth0
 ip address 10.0.0.0/31
router bgp 65001
 network 99.99.0.0/16
`})
	runFixpoint(t, procs)
	if procs["r1"].LocRIB().Len() != 0 {
		t.Fatal("network statement without a local route must not originate")
	}
	// With a matching static route it originates.
	procs2, _ := buildProcs(t, map[string]string{"r1.cfg": `hostname r1
interface eth0
 ip address 10.0.0.0/31
ip route 99.99.0.0/16 null0
router bgp 65001
 network 99.99.0.0/16
`})
	runFixpoint(t, procs2)
	if procs2["r1"].LocRIB().Len() != 1 {
		t.Fatal("network statement with matching static route should originate")
	}
}

// diamond builds r1-(r2,r3)-r4; r4 announces 10.8.0.0/24. maxPaths applies
// to r1.
func diamond(maxPaths int, importMap string) map[string]string {
	r1 := fmt.Sprintf(`hostname r1
interface up0
 ip address 10.0.1.0/31
interface up1
 ip address 10.0.2.0/31
router bgp 65001
 router-id 0.0.0.1
 maximum-paths %d
 neighbor 10.0.1.1 remote-as 65002
 neighbor 10.0.2.1 remote-as 65003
`, maxPaths)
	r1 += importMap
	return map[string]string{
		"r1.cfg": r1,
		"r2.cfg": `hostname r2
interface down0
 ip address 10.0.1.1/31
interface up0
 ip address 10.0.3.0/31
router bgp 65002
 router-id 0.0.0.2
 neighbor 10.0.1.0 remote-as 65001
 neighbor 10.0.3.1 remote-as 65004
`,
		"r3.cfg": `hostname r3
interface down0
 ip address 10.0.2.1/31
interface up0
 ip address 10.0.4.0/31
router bgp 65003
 router-id 0.0.0.3
 neighbor 10.0.2.0 remote-as 65001
 neighbor 10.0.4.1 remote-as 65004
`,
		"r4.cfg": `hostname r4
interface down0
 ip address 10.0.3.1/31
interface down1
 ip address 10.0.4.1/31
interface vlan10
 ip address 10.8.0.1/24
router bgp 65004
 router-id 0.0.0.4
 network 10.8.0.0/24
 neighbor 10.0.3.0 remote-as 65002
 neighbor 10.0.4.0 remote-as 65003
`,
	}
}

func TestECMPMultipath(t *testing.T) {
	procs, _ := buildProcs(t, diamond(4, ""))
	runFixpoint(t, procs)
	pfx := route.MustParsePrefix("10.8.0.0/24")
	paths := procs["r1"].LocRIB().Get(pfx)
	if len(paths) != 2 {
		t.Fatalf("r1 should hold 2 ECMP paths, got %v", paths)
	}
	nhs := map[string]bool{}
	for _, p := range paths {
		nhs[p.NextHopNode] = true
	}
	if !nhs["r2"] || !nhs["r3"] {
		t.Fatalf("ECMP next hops = %v", nhs)
	}
}

func TestECMPDisabled(t *testing.T) {
	procs, _ := buildProcs(t, diamond(1, ""))
	runFixpoint(t, procs)
	paths := procs["r1"].LocRIB().Get(route.MustParsePrefix("10.8.0.0/24"))
	if len(paths) != 1 {
		t.Fatalf("maximum-paths 1 should install a single best path, got %v", paths)
	}
	// Deterministic winner: lowest originator router-id (r2).
	if paths[0].NextHopNode != "r2" {
		t.Errorf("best path via %q, want r2 (lower router-id)", paths[0].NextHopNode)
	}
}

func TestLocalPrefOverridesPathLength(t *testing.T) {
	// r1 prefers r3 via import policy local-pref 200, despite equal paths.
	im := `ip prefix-list ALL seq 10 permit 0.0.0.0/0 le 32
route-map PREF3 permit 10
 set local-preference 200
router bgp 65001
 neighbor 10.0.2.1 route-map PREF3 in
`
	procs, _ := buildProcs(t, diamond(4, im))
	runFixpoint(t, procs)
	paths := procs["r1"].LocRIB().Get(route.MustParsePrefix("10.8.0.0/24"))
	if len(paths) != 1 || paths[0].NextHopNode != "r3" {
		t.Fatalf("local-pref should pin r3: %v", paths)
	}
	if paths[0].LocalPref != 200 {
		t.Errorf("local pref = %d", paths[0].LocalPref)
	}
}

func TestASPathPrependShiftsBestPath(t *testing.T) {
	// r2 prepends twice on export to r1 → r1 prefers r3 only.
	texts := diamond(4, "")
	texts["r2.cfg"] = `hostname r2
interface down0
 ip address 10.0.1.1/31
interface up0
 ip address 10.0.3.0/31
route-map LONG permit 10
 set as-path prepend 65002 65002
router bgp 65002
 router-id 0.0.0.2
 neighbor 10.0.1.0 remote-as 65001
 neighbor 10.0.1.0 route-map LONG out
 neighbor 10.0.3.1 remote-as 65004
`
	procs, _ := buildProcs(t, texts)
	runFixpoint(t, procs)
	paths := procs["r1"].LocRIB().Get(route.MustParsePrefix("10.8.0.0/24"))
	if len(paths) != 1 || paths[0].NextHopNode != "r3" {
		t.Fatalf("prepend should deflect to r3: %v", paths)
	}
}

func TestLoopRejection(t *testing.T) {
	procs, _ := buildProcs(t, chainConfig(3))
	runFixpoint(t, procs)
	// r2 re-advertises r1's prefix back to r1; r1 must reject it (its own
	// ASN is in the path) and keep only its locally originated route.
	r1 := procs["r1"].LocRIB().Get(route.MustParsePrefix("10.8.0.0/24"))
	if len(r1) != 1 || r1[0].NextHopNode != "" {
		t.Fatalf("r1 must keep only its local route: %v", r1)
	}
}

func TestAggregateActivationAndSuppression(t *testing.T) {
	texts := chainConfig(3)
	texts["r1.cfg"] = `hostname r1
interface right
 ip address 10.0.1.0/31
interface vlan10
 ip address 10.8.0.1/24
interface vlan11
 ip address 10.8.1.1/24
router bgp 65001
 router-id 0.0.0.1
 network 10.8.0.0/24
 network 10.8.1.0/24
 aggregate-address 10.8.0.0/21 summary-only
 neighbor 10.0.1.1 remote-as 65002
`
	procs, _ := buildProcs(t, texts)
	runFixpoint(t, procs)

	agg := route.MustParsePrefix("10.8.0.0/21")
	spec := route.MustParsePrefix("10.8.0.0/24")

	// The aggregate is active in r1's RIB alongside the contributors.
	if got := procs["r1"].LocRIB().Get(agg); len(got) != 1 || got[0].Protocol != route.Aggregate {
		t.Fatalf("r1 aggregate = %v", got)
	}
	if got := procs["r1"].LocRIB().Get(spec); len(got) != 1 {
		t.Fatal("contributors stay in the local RIB")
	}
	// r2 sees only the aggregate (summary-only suppression).
	if got := procs["r2"].LocRIB().Get(agg); len(got) != 1 {
		t.Fatalf("r2 should learn the aggregate: %v", got)
	}
	if got := procs["r2"].LocRIB().Get(spec); len(got) != 0 {
		t.Fatalf("r2 must not learn suppressed contributor: %v", got)
	}
	// And propagates it on.
	if got := procs["r3"].LocRIB().Get(agg); len(got) != 1 {
		t.Fatal("r3 should learn the aggregate transitively")
	}
}

func TestAggregateInactiveWithoutContributors(t *testing.T) {
	procs, _ := buildProcs(t, map[string]string{"r1.cfg": `hostname r1
interface eth0
 ip address 10.0.0.0/31
router bgp 65001
 aggregate-address 10.8.0.0/21 summary-only
`})
	runFixpoint(t, procs)
	if procs["r1"].LocRIB().Len() != 0 {
		t.Fatal("aggregate without contributors must stay inactive")
	}
}

func TestAggregateAttributeMapTagsCommunity(t *testing.T) {
	texts := chainConfig(2)
	texts["r1.cfg"] = `hostname r1
interface right
 ip address 10.0.1.0/31
interface vlan10
 ip address 10.8.0.1/24
route-map AGGTAG permit 10
 set community 65000:100
router bgp 65001
 router-id 0.0.0.1
 network 10.8.0.0/24
 aggregate-address 10.8.0.0/21 summary-only attribute-map AGGTAG
 neighbor 10.0.1.1 remote-as 65002
`
	procs, _ := buildProcs(t, texts)
	runFixpoint(t, procs)
	got := procs["r2"].LocRIB().Get(route.MustParsePrefix("10.8.0.0/21"))
	if len(got) != 1 || !got[0].HasCommunity(route.MakeCommunity(65000, 100)) {
		t.Fatalf("aggregate should carry the attribute-map community: %v", got)
	}
}

func TestRemovePrivateASVendorBehaviours(t *testing.T) {
	build := func(vendor string) []uint32 {
		// r2 exports to r3 with remove-private-as; the path at r2 is
		// [65002(private ASN of r2 is prepended AFTER stripping), 100, 65001...].
		// Use a mix: r1 (AS 65001 private) -> r2 (AS 100 public) -> r3 (AS 200).
		texts := map[string]string{
			"r1.cfg": `hostname r1
interface eth0
 ip address 10.0.0.0/31
interface vlan10
 ip address 10.8.0.1/24
router bgp 65001
 network 10.8.0.0/24
 neighbor 10.0.0.1 remote-as 100
`,
			"r2.cfg": fmt.Sprintf(`! vendor: %s
hostname r2
interface eth0
 ip address 10.0.0.1/31
interface eth1
 ip address 10.0.1.0/31
router bgp 100
 neighbor 10.0.0.0 remote-as 65001
 neighbor 10.0.1.1 remote-as 200
 neighbor 10.0.1.1 remove-private-as
`, vendor),
			"r3.cfg": `hostname r3
interface eth0
 ip address 10.0.1.1/31
router bgp 200
 neighbor 10.0.1.0 remote-as 100
`,
		}
		procs, _ := buildProcs(t, texts)
		runFixpoint(t, procs)
		got := procs["r3"].LocRIB().Get(route.MustParsePrefix("10.8.0.0/24"))
		if len(got) != 1 {
			t.Fatalf("r3 routes = %v", got)
		}
		return got[0].ASPath
	}
	// Path at r2 before export: [65001]; leading private. Both vendors
	// strip it here, so craft a case where they differ: private AFTER a
	// public ASN requires a longer chain; instead verify the simple case
	// agrees, then test StripPrivateASNs divergence directly (covered in
	// config tests). Here: both vendors yield [100].
	alpha := build("alpha")
	bravo := build("bravo")
	if len(alpha) != 1 || alpha[0] != 100 {
		t.Errorf("alpha path = %v, want [100]", alpha)
	}
	if len(bravo) != 1 || bravo[0] != 100 {
		t.Errorf("bravo path = %v, want [100]", bravo)
	}
}

func TestASPathOverwriteWithAllowASIn(t *testing.T) {
	// Two same-AS switches peered via a middle AS. Without overwrite, s2
	// rejects s1's route (own ASN in path). With AS_PATH overwrite on the
	// middle box and allowas-in, the route is accepted (§2.3).
	base := map[string]string{
		"s1.cfg": `hostname s1
interface eth0
 ip address 10.0.0.0/31
interface vlan10
 ip address 10.8.0.1/24
router bgp 65100
 network 10.8.0.0/24
 neighbor 10.0.0.1 remote-as 65200
`,
		"mid.cfg": `hostname mid
interface eth0
 ip address 10.0.0.1/31
interface eth1
 ip address 10.0.1.0/31
router bgp 65200
 neighbor 10.0.0.0 remote-as 65100
 neighbor 10.0.1.1 remote-as 65100
`,
		"s2.cfg": `hostname s2
interface eth0
 ip address 10.0.1.1/31
router bgp 65100
 neighbor 10.0.1.0 remote-as 65200
`,
	}
	procs, _ := buildProcs(t, base)
	runFixpoint(t, procs)
	pfx := route.MustParsePrefix("10.8.0.0/24")
	if got := procs["s2"].LocRIB().Get(pfx); len(got) != 0 {
		t.Fatalf("without overwrite s2 must reject the looped path: %v", got)
	}

	over := map[string]string{}
	for k, v := range base {
		over[k] = v
	}
	over["mid.cfg"] = `hostname mid
interface eth0
 ip address 10.0.0.1/31
interface eth1
 ip address 10.0.1.0/31
route-map OW permit 10
 set as-path overwrite 65200
router bgp 65200
 neighbor 10.0.0.0 remote-as 65100
 neighbor 10.0.1.1 remote-as 65100
 neighbor 10.0.1.1 route-map OW out
`
	procs2, _ := buildProcs(t, over)
	runFixpoint(t, procs2)
	got := procs2["s2"].LocRIB().Get(pfx)
	if len(got) != 1 {
		t.Fatalf("with overwrite s2 should accept: %v", got)
	}
	// Path: overwrite set [65200], then mid prepends its ASN 65200.
	if len(got[0].ASPath) != 2 || got[0].ASPath[0] != 65200 || got[0].ASPath[1] != 65200 {
		t.Errorf("overwritten path = %v", got[0].ASPath)
	}
}

func TestMEDComparedOnlySameNeighborAS(t *testing.T) {
	// r1 hears the same prefix from r2 (AS 65002, MED 50) and r3
	// (AS 65003, MED 10): different neighbor AS → MED skipped → tie
	// through step 6 → ECMP keeps both.
	texts := diamond(4, "")
	texts["r2.cfg"] = `hostname r2
interface down0
 ip address 10.0.1.1/31
interface up0
 ip address 10.0.3.0/31
route-map MED permit 10
 set metric 50
router bgp 65002
 router-id 0.0.0.2
 neighbor 10.0.1.0 remote-as 65001
 neighbor 10.0.1.0 route-map MED out
 neighbor 10.0.3.1 remote-as 65004
`
	texts["r3.cfg"] = `hostname r3
interface down0
 ip address 10.0.2.1/31
interface up0
 ip address 10.0.4.0/31
route-map MED permit 10
 set metric 10
router bgp 65003
 router-id 0.0.0.3
 neighbor 10.0.2.0 remote-as 65001
 neighbor 10.0.2.0 route-map MED out
 neighbor 10.0.4.1 remote-as 65004
`
	procs, _ := buildProcs(t, texts)
	runFixpoint(t, procs)
	paths := procs["r1"].LocRIB().Get(route.MustParsePrefix("10.8.0.0/24"))
	if len(paths) != 2 {
		t.Fatalf("cross-AS MED must not break the tie: %v", paths)
	}
}

func TestExportPolicyFilters(t *testing.T) {
	texts := chainConfig(3)
	texts["r2.cfg"] = `hostname r2
interface left
 ip address 10.0.1.1/31
interface right
 ip address 10.0.2.0/31
ip prefix-list NONE seq 10 deny 0.0.0.0/0 le 32
route-map BLOCK permit 10
 match ip address prefix-list NONE
router bgp 65002
 router-id 0.0.0.2
 neighbor 10.0.1.0 remote-as 65001
 neighbor 10.0.2.1 remote-as 65003
 neighbor 10.0.2.1 route-map BLOCK out
`
	procs, _ := buildProcs(t, texts)
	runFixpoint(t, procs)
	if procs["r3"].LocRIB().Len() != 0 {
		t.Fatal("export filter must block propagation to r3")
	}
	if procs["r2"].LocRIB().Len() != 1 {
		t.Fatal("r2 itself still learns the route")
	}
}

func TestRedistributeConnected(t *testing.T) {
	texts := chainConfig(2)
	texts["r1.cfg"] = `hostname r1
interface right
 ip address 10.0.1.0/31
interface lo0
 ip address 192.168.0.1/32
router bgp 65001
 router-id 0.0.0.1
 redistribute connected
 neighbor 10.0.1.1 remote-as 65002
`
	procs, _ := buildProcs(t, texts)
	runFixpoint(t, procs)
	// r2 learns both the loopback /32 and the link /31.
	rib := procs["r2"].LocRIB()
	if got := rib.Get(route.MustParsePrefix("192.168.0.1/32")); len(got) != 1 {
		t.Fatalf("r2 should learn redistributed loopback: %v", rib.All())
	}
	// Vendor alpha marks redistributed routes incomplete.
	if got := rib.Get(route.MustParsePrefix("192.168.0.1/32")); got[0].Origin != route.OriginIncomplete {
		t.Errorf("origin = %v, want incomplete", got[0].Origin)
	}
}

func TestPrefixFilterRestrictsOrigination(t *testing.T) {
	texts := chainConfig(2)
	texts["r1.cfg"] = `hostname r1
interface right
 ip address 10.0.1.0/31
interface vlan10
 ip address 10.8.0.1/24
interface vlan11
 ip address 10.9.0.1/24
router bgp 65001
 router-id 0.0.0.1
 network 10.8.0.0/24
 network 10.9.0.0/24
 neighbor 10.0.1.1 remote-as 65002
`
	procs, _ := buildProcs(t, texts)
	only8 := route.MustParsePrefix("10.8.0.0/24")
	procs["r1"].ResetForShard(func(p route.Prefix) bool { return p == only8 })
	procs["r2"].ResetForShard(func(p route.Prefix) bool { return p == only8 })
	runFixpoint(t, procs)
	rib := procs["r2"].LocRIB()
	if rib.Len() != 1 || len(rib.Get(only8)) != 1 {
		t.Fatalf("shard filter should admit only 10.8/24: %v", rib.All())
	}
}

func TestExportVersioning(t *testing.T) {
	procs, _ := buildProcs(t, chainConfig(2))
	runFixpoint(t, procs)
	p1 := procs["r1"]
	advs, ver, fresh := p1.ExportsTo("r2", 0, false)
	if !fresh || len(advs) != 1 {
		t.Fatalf("initial pull: advs=%v fresh=%v", advs, fresh)
	}
	// Same version again: no change.
	if _, _, fresh := p1.ExportsTo("r2", ver, true); fresh {
		t.Fatal("unchanged state must report not-fresh")
	}
	// Unknown neighbor.
	if _, _, fresh := p1.ExportsTo("ghost", 0, false); fresh {
		t.Fatal("unknown neighbor should never be fresh")
	}
}

func TestMemoryGauges(t *testing.T) {
	snap, err := config.ParseTexts(chainConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	tr := metrics.NewTracker("w0", 0)
	procs := map[string]*Process{}
	for name, dev := range snap.Devices {
		procs[name] = NewProcess(dev, net.Sessions[name], tr)
	}
	runFixpoint(t, procs)
	if tr.Current() <= 0 || tr.Peak() <= 0 {
		t.Fatalf("tracker should observe RIB memory: %s", tr.Snapshot())
	}
}

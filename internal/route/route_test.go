package route

import (
	"math/rand"
	"strings"
	"testing"
)

func TestProtocolAdminDistance(t *testing.T) {
	order := []Protocol{Connected, Static, BGP, OSPF, IBGP}
	for i := 1; i < len(order); i++ {
		if order[i-1].AdminDistance() >= order[i].AdminDistance() {
			t.Errorf("admin distance %v (%d) should be < %v (%d)",
				order[i-1], order[i-1].AdminDistance(), order[i], order[i].AdminDistance())
		}
	}
}

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{
		Connected: "connected", Static: "static", OSPF: "ospf",
		BGP: "bgp", IBGP: "ibgp", Aggregate: "aggregate",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestCommunity(t *testing.T) {
	c := MakeCommunity(65000, 100)
	if c.String() != "65000:100" {
		t.Fatalf("String = %q", c.String())
	}
	parsed, err := ParseCommunity("65000:100")
	if err != nil || parsed != c {
		t.Fatalf("ParseCommunity: %v %v", parsed, err)
	}
	for _, bad := range []string{"65000", "70000:1", "1:70000", "a:b"} {
		if _, err := ParseCommunity(bad); err == nil {
			t.Errorf("ParseCommunity(%q) succeeded", bad)
		}
	}
}

func testRoute() *Route {
	return &Route{
		Prefix:       MustParsePrefix("10.8.0.0/24"),
		Protocol:     BGP,
		NextHop:      MustParseAddr("10.0.0.1"),
		NextHopNode:  "agg-0-0",
		ASPath:       []uint32{65100, 65001},
		LocalPref:    100,
		Origin:       OriginIGP,
		Communities:  []Community{MakeCommunity(65000, 100)},
		OriginatorID: 42,
		PeerAS:       65100,
	}
}

func TestRouteCloneIndependence(t *testing.T) {
	r := testRoute()
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c.ASPath[0] = 1
	c.Communities[0] = 0
	if r.ASPath[0] != 65100 || r.Communities[0] != MakeCommunity(65000, 100) {
		t.Fatal("mutating clone changed original")
	}
}

func TestRouteEqualAndKey(t *testing.T) {
	a, b := testRoute(), testRoute()
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Fatal("identical routes must be Equal with equal Keys")
	}
	b.ASPath = []uint32{65100, 65002}
	if a.Equal(b) || a.Key() == b.Key() {
		t.Fatal("differing AS path must break equality and key")
	}
	c := testRoute()
	c.LocalPref = 200
	if a.Equal(c) || a.Key() == c.Key() {
		t.Fatal("differing local-pref must break equality and key")
	}
}

func TestRouteHelpers(t *testing.T) {
	r := testRoute()
	if !r.HasCommunity(MakeCommunity(65000, 100)) || r.HasCommunity(MakeCommunity(1, 1)) {
		t.Error("HasCommunity")
	}
	if !r.ASPathContains(65001) || r.ASPathContains(9) {
		t.Error("ASPathContains")
	}
	if r.ModelBytes() <= 96 {
		t.Error("ModelBytes should charge for attributes")
	}
	s := r.String()
	for _, want := range []string{"10.8.0.0/24", "bgp", "agg-0-0", "65100", "lp=100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestSortRoutesDeterministic(t *testing.T) {
	a := testRoute()
	b := testRoute()
	b.Prefix = MustParsePrefix("10.7.0.0/24")
	c := testRoute()
	c.LocalPref = 300
	rs := []*Route{a, c, b}
	SortRoutes(rs)
	if rs[0] != b {
		t.Fatal("lower prefix should sort first")
	}
	rs2 := []*Route{c, b, a}
	SortRoutes(rs2)
	for i := range rs {
		if rs[i] != rs2[i] {
			t.Fatal("sorting is not deterministic across input orders")
		}
	}
}

// TestCompareRoutesMatchesKey is the comparator's contract: on generated
// pairs it orders routes exactly as their Key strings compare. Fields come
// from tiny domains so pairs often tie on a prefix of Key's fields and
// differ further in, including AS paths and community lists of different
// lengths, next-hop names where one is a prefix of the other, and PeerAS,
// which neither Key nor the comparator reads.
func TestCompareRoutesMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pick := func(vs ...uint32) uint32 { return vs[rng.Intn(len(vs))] }
	list := func() []uint32 {
		out := make([]uint32, rng.Intn(4))
		for i := range out {
			out[i] = pick(1, 65000, 1<<24, 1<<31)
		}
		return out
	}
	comms := func() []Community {
		var out []Community
		for _, c := range list() {
			out = append(out, Community(c))
		}
		return out
	}
	gen := func() *Route {
		return &Route{
			Prefix:       Prefix{Addr: pick(0x0a000000, 0x0a000100, 0xc0a80000), Len: uint8(pick(16, 24))},
			Protocol:     Protocol(pick(uint32(BGP), uint32(OSPF))),
			NextHop:      pick(0, 1, 1<<24),
			NextHopNode:  []string{"", "a", "ab", "b", "edge-0-0"}[rng.Intn(5)],
			Metric:       pick(0, 5, 1<<20),
			ASPath:       list(),
			LocalPref:    pick(100, 200),
			Origin:       Origin(pick(0, 2)),
			OriginatorID: pick(0, 7, 1<<30),
			Communities:  comms(),
			PeerAS:       pick(1, 2),
		}
	}
	sign := func(c int) int { return min(max(c, -1), 1) }
	for i := 0; i < 20000; i++ {
		a, b := gen(), gen()
		if i%2 == 0 { // a near twin: one of Key's tail fields redrawn
			*b = *a
			switch i / 2 % 4 {
			case 0:
				b.ASPath = list()
			case 1:
				b.Communities = comms()
			case 2:
				b.NextHopNode = gen().NextHopNode
			case 3:
				b.PeerAS = pick(1, 2)
			}
		}
		want := strings.Compare(a.Key(), b.Key())
		if got := compareRoutes(a, b); sign(got) != want {
			t.Fatalf("compareRoutes = %d, Key order %d:\n a=%+v\n b=%+v", got, want, a, b)
		}
		if got := compareRoutes(b, a); sign(got) != -want {
			t.Fatalf("compareRoutes not antisymmetric:\n a=%+v\n b=%+v", a, b)
		}
	}
}

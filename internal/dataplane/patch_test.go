package dataplane

import (
	"bytes"
	"math/rand"
	"testing"

	"s2/internal/bdd"
	"s2/internal/config"
	"s2/internal/route"
)

// patchDeviceCfg is the node the patch scripts run on: four routed ports
// (two behind ACLs, one of them also filtering what it delivers), a
// multi-access subnet, and a static discard.
const patchDeviceCfg = `hostname d
interface eth0
 ip address 192.168.0.1/30
interface eth1
 ip address 192.168.0.5/30
 ip access-group ACL_A in
interface eth2
 ip address 192.168.0.9/30
 ip access-group ACL_B out
interface vlan10
 ip address 10.8.0.1/24
 ip access-group ACL_A out
ip route 10.99.0.0/24 null0
ip access-list ACL_A
 permit tcp 10.0.0.0/8 any eq 80
 permit ip any 10.8.0.0/25
 deny ip any any
ip access-list ACL_B
 deny ip any 10.1.2.0/24
 permit ip any any
`

// patchPrefixes is the pool scripts draw from: nested /8 ⊃ /16 ⊃ /24 ⊃ /25
// chains, siblings, the default route, and prefixes equal to, covering and
// inside the device's connected subnets and its static route.
var patchPrefixes = []string{
	"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "10.1.2.0/24", "10.1.2.128/25",
	"10.2.0.0/16", "10.2.3.0/24", "10.8.0.0/16", "10.8.0.0/24", "10.8.0.128/25",
	"10.99.0.0/16", "10.99.0.0/24", "10.99.0.64/26",
	"192.168.0.0/24", "192.168.0.0/30", "192.168.0.4/31", "192.168.0.8/30",
}

// patchNextHops are neighbor addresses on eth0, eth1, eth2 and vlan10, plus
// one that resolves to no interface.
var patchNextHops = []string{"192.168.0.2", "192.168.0.6", "192.168.0.10", "10.8.0.9", "172.31.0.1"}

// patchScript drives one node through a sequence of changes decoded from
// data, applying each step by Patch over the changed prefixes, and checks
// after every step that the node serializes byte-identically to a cold
// CompileNode of the same state. It returns the number of steps checked.
func patchScript(t *testing.T, data []byte) int {
	t.Helper()
	dev, err := config.Parse("d.cfg", patchDeviceCfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := Layout{}
	eng := layout.NewEngine(0)
	bgp, ospf := route.NewRIB(), route.NewRIB()
	compile := func(e *bdd.Engine) *NodeDP {
		fib, _ := BuildFIB(dev, bgp, ospf)
		n, err := CompileNode(e, dev, fib)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	node := compile(eng)

	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	steps := 0
	for {
		nOps, ok := next()
		if !ok {
			return steps
		}
		var dirty []route.Prefix
		recompile := false
		for i := 0; i <= int(nOps%3); i++ {
			op, ok1 := next()
			arg, ok2 := next()
			sel, ok3 := next()
			if !ok1 || !ok2 || !ok3 {
				return steps
			}
			p := route.MustParsePrefix(patchPrefixes[int(arg)%len(patchPrefixes)])
			switch op % 8 {
			case 0, 1: // install or replace a BGP route set (ECMP subset chosen by sel)
				var rs []*route.Route
				for j, nh := range patchNextHops {
					if sel&(1<<j) != 0 {
						rs = append(rs, &route.Route{Prefix: p, Protocol: route.BGP, NextHop: route.MustParseAddr(nh), NextHopNode: "peer"})
					}
				}
				bgp.SetRoutes(p, rs)
				dirty = append(dirty, p)
			case 2: // withdraw
				bgp.Remove(p)
				dirty = append(dirty, p)
			case 3: // active aggregate: discard for unmatched traffic
				bgp.SetRoutes(p, []*route.Route{{Prefix: p, Protocol: route.Aggregate}})
				dirty = append(dirty, p)
			case 4: // an OSPF route for the same prefix (wins or loses on distance)
				if sel%2 == 0 {
					ospf.Remove(p)
				} else {
					nh := patchNextHops[int(sel/2)%3]
					ospf.SetRoutes(p, []*route.Route{{Prefix: p, Protocol: route.OSPF, NextHop: route.MustParseAddr(nh), NextHopNode: "peer"}})
				}
				dirty = append(dirty, p)
			case 5: // toggle a static discard for p
				kept := dev.StaticRoutes[:0:0]
				found := false
				for _, sr := range dev.StaticRoutes {
					if sr.Prefix == p && sr.Drop {
						found = true
						continue
					}
					kept = append(kept, sr)
				}
				if !found {
					kept = append(kept, config.StaticRoute{Prefix: p, Drop: true})
				}
				dev.StaticRoutes = kept
				dirty = append(dirty, p)
			case 6: // swap in/out ACL bindings: predicates Patch never revisits
				ifc := dev.Interfaces[[]string{"eth0", "eth1", "eth2", "vlan10"}[int(arg)%4]]
				acl := []string{"", "ACL_A", "ACL_B"}[int(sel)%3]
				if sel&0x80 != 0 {
					ifc.InACL = acl
				} else {
					ifc.OutACL = acl
				}
				recompile = true
			case 7: // connected state: shut or open a port
				ifc := dev.Interfaces[[]string{"eth0", "eth1", "eth2", "vlan10"}[int(arg)%4]]
				ifc.Shutdown = !ifc.Shutdown
				recompile = true
			}
		}
		if recompile {
			// What the worker does when SameForwardingConfig fails.
			node = compile(eng)
		} else {
			region := NewRegion(dirty)
			fib, _ := BuildFIBIn(dev, region, bgp, ospf)
			if err := node.Patch(eng, region, fib); err != nil {
				t.Fatal(err)
			}
		}
		if nOps&0x80 != 0 {
			node.Remap(eng.GC(node.RootRefs()))
		}
		cold := layout.NewEngine(0)
		want := compile(cold).Serialize(cold)
		if got := node.Serialize(eng); !bytes.Equal(got, want) {
			t.Fatalf("step %d (dirty %v, recompile %v): patched node differs from a cold compile", steps, dirty, recompile)
		}
		steps++
	}
}

// TestPatchMatchesColdCompile is the property behind incremental data-plane
// compilation: any sequence of route and config changes applied by patching
// only the changed prefixes leaves exactly the predicates a cold compile of
// the final state produces, with or without a GC between steps.
func TestPatchMatchesColdCompile(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 400)
		rng.Read(data)
		total += patchScript(t, data)
	}
	if total < 400 {
		t.Fatalf("scripts checked only %d steps", total)
	}
}

// TestPatchCoveringAndCovered pins the two directions LPM makes a change
// leak: a /16 changing under live /24s must not disturb them, and a /24
// disappearing must hand its addresses back to the /16, the /8 or nobody.
func TestPatchCoveringAndCovered(t *testing.T) {
	idx := func(p string) byte {
		for i, s := range patchPrefixes {
			if s == p {
				return byte(i)
			}
		}
		t.Fatalf("no %s in the pool", p)
		return 0
	}
	step := func(op byte, p string, sel byte) []byte { return []byte{0, op, idx(p), sel} }
	var script []byte
	for _, s := range [][]byte{
		step(0, "10.1.1.0/24", 0b00001), step(0, "10.1.2.0/24", 0b00110), step(0, "10.1.2.128/25", 0b00100),
		step(0, "10.1.0.0/16", 0b00010), // covering route arrives under three specifics
		step(0, "10.1.0.0/16", 0b00101), // and changes its ECMP set
		step(2, "10.1.2.0/24", 0),       // a specific goes: the /25 stays, the rest falls to the /16
		step(3, "10.1.0.0/16", 0),       // the /16 becomes an aggregate discard
		step(0, "10.0.0.0/8", 0b01000),
		step(2, "10.1.0.0/16", 0),          // gone: its hole falls through to the /8
		step(0, "10.8.0.0/24", 0b00001),    // a route for a connected subnet loses to it
		step(0, "10.8.0.128/25", 0b00001),  // a specific inside it wins
		step(5, "10.99.0.64/26", 0),        // static discard inside a static discard
		step(0, "192.168.0.0/24", 0b10000), // unresolvable next hop only: no entry
		step(2, "10.0.0.0/8", 0),
	} {
		script = append(script, s...)
	}
	if n := patchScript(t, script); n != 14 {
		t.Fatalf("script ran %d steps, want 14", n)
	}
}

// FuzzPatchMatchesColdCompile lets the fuzzer search for a change sequence
// whose patched predicates differ from a cold compile.
func FuzzPatchMatchesColdCompile(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 0x80, 2, 3, 0, 1, 0, 2, 7, 6, 1, 0x81})
	f.Add([]byte{2, 0, 4, 6, 3, 2, 0, 5, 12, 0, 0x82, 7, 3, 0, 0, 5, 3, 2, 4, 0})
	rng := rand.New(rand.NewSource(99))
	seed := make([]byte, 120)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2000 {
			data = data[:2000]
		}
		patchScript(t, data)
	})
}

func TestRegionOverlaps(t *testing.T) {
	r := NewRegion([]route.Prefix{route.MustParsePrefix("10.1.2.0/24"), route.MustParsePrefix("10.9.0.0/16")})
	for p, want := range map[string]bool{
		"0.0.0.0/0": true, "10.0.0.0/8": true, "10.1.0.0/16": true, "10.1.2.0/24": true,
		"10.1.2.128/25": true, "10.1.2.7/32": true, "10.9.0.0/16": true, "10.9.200.0/24": true,
		"10.1.3.0/24": false, "10.2.0.0/16": false, "11.0.0.0/8": false, "10.1.0.0/23": false,
		"10.1.2.0/23": true, "10.8.0.0/15": true, "10.10.0.0/16": false,
	} {
		if got := r.Overlaps(route.MustParsePrefix(p)); got != want {
			t.Errorf("Overlaps(%s) = %v, want %v", p, got, want)
		}
	}
	var all *Region
	if !all.Overlaps(route.MustParsePrefix("203.0.113.0/24")) {
		t.Error("the nil region must overlap everything")
	}
}

func TestSameForwardingConfig(t *testing.T) {
	parse := func(cfg string) *config.Device {
		dev, err := config.Parse("d.cfg", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	base := parse(patchDeviceCfg)
	if !SameForwardingConfig(base, parse(patchDeviceCfg)) {
		t.Fatal("identical configs must compare equal")
	}
	for name, edit := range map[string][2]string{
		"description": {"interface eth0\n", "interface eth0\n description uplink\n"},
	} {
		if !SameForwardingConfig(base, parse(replaceOnce(t, patchDeviceCfg, edit[0], edit[1]))) {
			t.Errorf("%s: must not change the forwarding config", name)
		}
	}
	for name, edit := range map[string][2]string{
		"acl entry":    {" deny ip any 10.1.2.0/24\n", " deny ip any 10.1.3.0/24\n"},
		"acl binding":  {" ip access-group ACL_B out\n", " ip access-group ACL_A out\n"},
		"static":       {"ip route 10.99.0.0/24 null0\n", "ip route 10.98.0.0/24 null0\n"},
		"address":      {" ip address 192.168.0.9/30\n", " ip address 192.168.0.13/30\n"},
		"shutdown":     {"interface eth0\n", "interface eth0\n shutdown\n"},
		"new acl bind": {"interface eth0\n", "interface eth0\n ip access-group ACL_A in\n"},
	} {
		if SameForwardingConfig(base, parse(replaceOnce(t, patchDeviceCfg, edit[0], edit[1]))) {
			t.Errorf("%s: must change the forwarding config", name)
		}
	}
}

func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	i := bytes.Index([]byte(s), []byte(old))
	if i < 0 {
		t.Fatalf("no %q in config", old)
	}
	return s[:i] + new + s[i+len(old):]
}

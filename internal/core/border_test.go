package core

import (
	"net"
	"strings"
	"testing"

	"s2/internal/baseline"
	"s2/internal/config"
	"s2/internal/sidecar"
)

// ospfBorderTexts is ospfLineTexts with r1 as a border router: it
// redistributes OSPF into an eBGP session on eth1 to x1, which runs BGP
// but no OSPF. x1 is therefore in r1's OSPF neighbor list, as every
// adjacency on an OSPF-enabled interface is, without an OSPF process.
func ospfBorderTexts() map[string]string {
	texts := ospfLineTexts()
	texts["r1"] = strings.Replace(texts["r1"], "router ospf 1", "interface eth1\n ip address 10.0.2.0/31\nrouter ospf 1", 1) +
		"router bgp 65001\n router-id 0.0.0.1\n redistribute ospf\n neighbor 10.0.2.1 remote-as 65002\n"
	texts["x1"] = `hostname x1
interface eth0
 ip address 10.0.2.1/31
interface lo0
 ip address 192.168.9.1/32
router bgp 65002
 router-id 0.0.0.9
 network 192.168.9.1/32
 neighbor 10.0.2.0 remote-as 65001
`
	return texts
}

// TestOSPFBorderMatchesBatfish runs the border network on every worker
// layout that splits x1 from r1 or keeps it local, in-process and over
// loopback TCP, and requires Batfish's RIBs each time: a pull of a hosted
// neighbor that runs no process of the protocol is an empty reply, not an
// error.
func TestOSPFBorderMatchesBatfish(t *testing.T) {
	texts := ospfBorderTexts()
	parse := func() *config.Snapshot {
		snap, err := config.ParseTexts(withCfgSuffix(texts))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	bf, err := baseline.NewBatfish(parse(), baseline.BatfishOptions{KeepRIBs: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.RunControlPlane(); err != nil {
		t.Fatal(err)
	}
	want, err := bf.RIBs()
	if err != nil {
		t.Fatal(err)
	}
	if r1 := want["r1"]; r1 == nil || r1.RouteCount() == 0 || want["x1"].RouteCount() == 0 {
		t.Fatal("baseline computed no routes at r1 or x1")
	}
	tcpAddrs := make([]string, 2)
	for i := range tcpAddrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		tcpAddrs[i] = lis.Addr().String()
		go sidecar.Serve(NewWorker(), lis)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"workers=1", Options{Workers: 1}},
		{"workers=3", Options{Workers: 3}},
		{"workers=4", Options{Workers: 4}},
		{"workers=4 shards=2", Options{Workers: 4, Shards: 2}},
		{"tcp workers=2", Options{WorkerAddrs: tcpAddrs}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.KeepRIBs, tc.opts.Seed = true, 1
			c := newS2(t, parse(), texts, tc.opts)
			defer c.Close()
			runCP(t, c)
			got, err := c.CollectRIBs()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d nodes, baseline has %d", len(got), len(want))
			}
			for node, rib := range want {
				if !rib.Equal(got[node]) {
					t.Fatalf("%s RIBs differ at prefixes %v", node, rib.Diff(got[node]))
				}
			}
		})
	}
}

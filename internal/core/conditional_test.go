package core

import (
	"bytes"
	"strings"
	"testing"

	"s2/internal/config"
	"s2/internal/route"
	"s2/internal/shard"
)

// conditionalTexts builds the classic conditional-advertisement scenario
// (the paper's reference [1]): r2 advertises the backup prefix
// 172.16.0.0/16 to r3 only while the primary prefix 10.8.0.0/24 is ABSENT
// from its BGP table. r1 announces the primary, so normally the backup is
// withheld. Several independent filler prefixes force multiple shards.
func conditionalTexts(withPrimary bool) map[string]string {
	r1 := `hostname r1
interface eth0
 ip address 10.0.0.0/31
interface vlan10
 ip address 10.8.0.1/24
interface vlan11
 ip address 10.9.0.1/24
interface vlan12
 ip address 10.10.0.1/24
interface vlan13
 ip address 10.11.0.1/24
router bgp 65001
 router-id 0.0.0.1
`
	if withPrimary {
		r1 += " network 10.8.0.0/24\n"
	}
	r1 += ` network 10.9.0.0/24
 network 10.10.0.0/24
 network 10.11.0.0/24
 neighbor 10.0.0.1 remote-as 65002
`
	return map[string]string{
		"r1": r1,
		"r2": `hostname r2
interface eth0
 ip address 10.0.0.1/31
interface eth1
 ip address 10.0.1.0/31
ip route 172.16.0.0/16 null0
ip prefix-list PL_BACKUP seq 10 permit 172.16.0.0/16
ip prefix-list PL_PRIMARY seq 10 permit 10.8.0.0/24
route-map ADV_BACKUP permit 10
 match ip address prefix-list PL_BACKUP
router bgp 65002
 router-id 0.0.0.2
 network 172.16.0.0/16
 neighbor 10.0.0.0 remote-as 65001
 neighbor 10.0.1.1 remote-as 65003
 neighbor 10.0.1.1 advertise-map ADV_BACKUP non-exist-map PL_PRIMARY
`,
		"r3": `hostname r3
interface eth0
 ip address 10.0.1.1/31
router bgp 65003
 router-id 0.0.0.3
 neighbor 10.0.1.0 remote-as 65002
`,
	}
}

func condSnap(t *testing.T, withPrimary bool) (*config.Snapshot, map[string]string) {
	t.Helper()
	texts := conditionalTexts(withPrimary)
	snap, err := config.ParseTexts(withCfgSuffix(texts))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return snap, texts
}

func TestConditionalAdvertisementSemantics(t *testing.T) {
	backup := route.MustParsePrefix("172.16.0.0/16")
	primary := route.MustParsePrefix("10.8.0.0/24")

	// Primary present: backup withheld from r3.
	snap, texts := condSnap(t, true)
	c := newS2(t, snap, texts, Options{Workers: 2, KeepRIBs: true, Seed: 1})
	runCP(t, c)
	ribs, err := c.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}
	if got := ribs["r3"].Get(backup); len(got) != 0 {
		t.Fatalf("backup must be withheld while the primary exists: %v", got)
	}
	if got := ribs["r3"].Get(primary); len(got) != 1 {
		t.Fatalf("primary should reach r3: %v", got)
	}

	// Primary absent: backup advertised.
	snap2, texts2 := condSnap(t, false)
	c2 := newS2(t, snap2, texts2, Options{Workers: 2, KeepRIBs: true, Seed: 1})
	runCP(t, c2)
	ribs2, err := c2.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}
	if got := ribs2["r3"].Get(backup); len(got) != 1 {
		t.Fatalf("backup must appear once the primary is gone: %v", ribs2["r3"].All())
	}
}

func TestConditionalDependencyInDPDG(t *testing.T) {
	snap, _ := condSnap(t, true)
	d := shard.BuildDPDG(snap)
	backup := route.MustParsePrefix("172.16.0.0/16")
	primary := route.MustParsePrefix("10.8.0.0/24")
	found := false
	for _, dep := range d.Deps[backup] {
		if dep == primary {
			found = true
		}
	}
	if !found {
		t.Fatalf("DPDG must record backup→primary dependency: %v", d.Deps[backup])
	}
	// Ignoring conditional deps removes the edge (the §7 scenario).
	d2 := shard.BuildDPDGOpts(snap, shard.DPDGOptions{IgnoreConditional: true})
	if len(d2.Deps[backup]) != 0 {
		t.Fatalf("IgnoreConditional must drop the edge: %v", d2.Deps[backup])
	}
	// With the full DPDG, sharding keeps them together.
	shards, err := shard.MakeShards(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if sh.Contains(backup) != sh.Contains(primary) {
			t.Fatal("dependent prefixes split across shards")
		}
	}
}

// TestRuntimeShardMerge is §7's recovery path end to end: shards built
// WITHOUT conditional dependencies split the backup from the primary; the
// runtime detector notices the consulted condition references an
// out-of-shard prefix, merges the shards, recomputes, and the final RIBs
// match the unsharded run. The sharded run spills, so its harvests are
// deferred: the merged recompute rewrites its shard's spill file, which must
// drain after (and so supersede) the shards it absorbed, and the compiled
// data plane must match the unsharded run's too.
func TestRuntimeShardMerge(t *testing.T) {
	snap, texts := condSnap(t, true)
	ref := newS2(t, snap, texts, Options{Workers: 2, Shards: 1, KeepRIBs: true, Seed: 1})
	runCP(t, ref)
	want, err := ref.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}

	snap2, _ := condSnap(t, true)
	c := newS2(t, snap2, texts, Options{
		Workers: 2, Shards: 5, KeepRIBs: true, Seed: 1, SpillDir: t.TempDir(),
		IgnoreConditionalDeps: true,
	})
	runCP(t, c)
	got, err := c.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}
	merges := c.ShardMergeLog()
	if len(merges) == 0 {
		t.Fatal("expected a runtime shard merge; did the shards land together by luck? lower the seed variety")
	}
	for _, m := range merges {
		if !strings.Contains(m, "unforeseen conditional dependency") {
			t.Errorf("merge log entry: %q", m)
		}
	}
	for node, rib := range want {
		if !rib.Equal(got[node]) {
			t.Fatalf("%s differs after runtime merge: %v", node, rib.Diff(got[node]))
		}
	}
	for _, v := range []*Controller{ref, c} {
		if _, err := v.ComputeDataPlane(); err != nil {
			t.Fatal(err)
		}
	}
	wantDP, gotDP := predicates(ref), predicates(c)
	if len(gotDP) != len(wantDP) {
		t.Fatalf("%d compiled nodes, want %d", len(gotDP), len(wantDP))
	}
	for name, p := range wantDP {
		if !bytes.Equal(gotDP[name], p) {
			t.Fatalf("compiled predicates of %s differ from the unsharded run", name)
		}
	}
}

// TestRuntimeMergeNotNeededWithFullDPDG: when the static DPDG already
// co-locates the dependent prefixes, no runtime merge happens.
func TestRuntimeMergeNotNeededWithFullDPDG(t *testing.T) {
	snap, texts := condSnap(t, true)
	c := newS2(t, snap, texts, Options{Workers: 2, Shards: 5, KeepRIBs: true, Seed: 1})
	runCP(t, c)
	if merges := c.ShardMergeLog(); len(merges) != 0 {
		t.Fatalf("static DPDG should prevent runtime merges: %v", merges)
	}
}

package bgp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"

	"s2/internal/config"
	"s2/internal/route"
	"s2/internal/synth"
	"s2/internal/topology"
)

// deltaNet is one network of the delta-pull oracle: its configurations,
// an optional edit applied after the first fixed point (the rounds then
// converge again from the live state, cursors intact), and the SHA-256
// of every device's Loc-RIB at the end, pinned from the full-export
// implementation the delta pulls replaced.
type deltaNet struct {
	name   string
	texts  func(t *testing.T) map[string]string
	edit   func(procs map[string]*Process)
	digest string
}

func deltaNets() []deltaNet {
	return []deltaNet{
		{name: "fattree-k4", texts: fatTreeTexts(synth.FatTreeOptions{K: 4, MaxPaths: 64, PrefixesPerEdge: 1}),
			digest: "75ecef52c3a080a1a266df24152d138f7b7a62320e44eba95806cb37753d6175"},
		{name: "fattree-k6-narrow", texts: fatTreeTexts(synth.FatTreeOptions{K: 6, MaxPaths: 2, PrefixesPerEdge: 2}),
			digest: "d673508b16e40e84c47c94e4e56668230a1748d7c7aa15ef60912d6b63f38b52"},
		{name: "dcn", texts: func(t *testing.T) map[string]string {
			texts, err := synth.DCN(synth.DCNOptions{Clusters: 2, TORsPerCluster: 2, FabricWidth: 2, CoreWidth: 2,
				DeepClusters: true, WithAggregation: true, VLANsPerTOR: 2})
			if err != nil {
				t.Fatal(err)
			}
			return texts
		}, digest: "9f49caad2d00caec30b424dbfc6e1c97180fc705f240d2d187e1bdc0d3014cf4"},
		{name: "conditional-primary", texts: func(*testing.T) map[string]string { return conditionalTexts(true) },
			digest: "b1a8e46ef248f1a216d914b4adb1386243fe851040160654910e134551147a6c"},
		{name: "conditional-backup", texts: func(*testing.T) map[string]string { return conditionalTexts(false) },
			digest: "b9de9fc7503897b87fbb765c7b877c791bac7b6adeedc75e0eb65b3e40ac0314"},
		{name: "withdrawals", texts: func(*testing.T) map[string]string { return withdrawalTexts() },
			edit: func(procs map[string]*Process) {
				// A cold run never suppresses a prefix it already
				// exported: an aggregate activates with its first
				// contributor. Adding one to o's configuration after the
				// first fixed point makes o withdraw the /24 it exported.
				cfg := procs["o"].cfg
				cfg.Aggregates = append(cfg.Aggregates, aggregateOf("10.50.0.0/16"))
			},
			digest: "6a199e00f99d29d4da1659c5c57717854a84819e720fe505d4ebf47f1f80ab35"},
	}
}

func fatTreeTexts(opts synth.FatTreeOptions) func(*testing.T) map[string]string {
	return func(t *testing.T) map[string]string {
		texts, err := synth.FatTree(opts)
		if err != nil {
			t.Fatal(err)
		}
		return texts
	}
}

// conditionalTexts is the classic conditional advertisement: r2 advertises
// its backup 172.16.0.0/16 to r3 only while r1's primary 10.8.0.0/24 is
// absent from its table. With the primary, r2's first decision (before it
// has heard from r1) advertises the backup and a later one withdraws it.
func conditionalTexts(withPrimary bool) map[string]string {
	r1 := `hostname r1
interface eth0
 ip address 10.0.0.0/31
interface vlan10
 ip address 10.8.0.1/24
interface vlan11
 ip address 10.9.0.1/24
router bgp 65001
 router-id 0.0.0.1
`
	if withPrimary {
		r1 += " network 10.8.0.0/24\n"
	}
	r1 += ` network 10.9.0.0/24
 neighbor 10.0.0.1 remote-as 65002
`
	return map[string]string{
		"r1.cfg": r1,
		"r2.cfg": `hostname r2
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
		"r3.cfg": `hostname r3
interface eth0
 ip address 10.0.1.1/31
router bgp 65003
 router-id 0.0.0.3
 neighbor 10.0.1.0 remote-as 65002
`,
	}
}

// withdrawalTexts forces an export-policy withdrawal. o originates
// 10.50.0.0/24; r1 hears it first over the short path via a and exports it
// to r4, then over the longer path via b and c, which c tags with
// 65000:9 and r1 prefers (local-preference 200). r1's export policy to r4
// denies the tag, so the best-path change withdraws the prefix from r4.
func withdrawalTexts() map[string]string {
	return map[string]string{
		"o.cfg": `hostname o
interface to-a
 ip address 10.1.0.0/31
interface to-b
 ip address 10.1.1.0/31
interface vlan50
 ip address 10.50.0.1/24
router bgp 65010
 router-id 0.0.0.10
 network 10.50.0.0/24
 neighbor 10.1.0.1 remote-as 65011
 neighbor 10.1.1.1 remote-as 65012
`,
		"a.cfg": `hostname a
interface to-o
 ip address 10.1.0.1/31
interface to-r1
 ip address 10.1.2.0/31
router bgp 65011
 router-id 0.0.0.11
 neighbor 10.1.0.0 remote-as 65010
 neighbor 10.1.2.1 remote-as 65001
`,
		"b.cfg": `hostname b
interface to-o
 ip address 10.1.1.1/31
interface to-c
 ip address 10.1.3.0/31
router bgp 65012
 router-id 0.0.0.12
 neighbor 10.1.1.0 remote-as 65010
 neighbor 10.1.3.1 remote-as 65013
`,
		"c.cfg": `hostname c
interface to-b
 ip address 10.1.3.1/31
interface to-r1
 ip address 10.1.4.0/31
route-map TAG permit 10
 set community 65000:9 additive
router bgp 65013
 router-id 0.0.0.13
 neighbor 10.1.3.0 remote-as 65012
 neighbor 10.1.4.1 remote-as 65001
 neighbor 10.1.4.1 route-map TAG out
`,
		"r1.cfg": `hostname r1
interface to-a
 ip address 10.1.2.1/31
interface to-c
 ip address 10.1.4.1/31
interface to-r4
 ip address 10.1.5.0/31
ip community-list standard TAGGED permit 65000:9
route-map PREF permit 10
 set local-preference 200
route-map NOTAG deny 10
 match community TAGGED
route-map NOTAG permit 20
router bgp 65001
 router-id 0.0.0.1
 neighbor 10.1.2.0 remote-as 65011
 neighbor 10.1.4.0 remote-as 65013
 neighbor 10.1.4.0 route-map PREF in
 neighbor 10.1.5.1 remote-as 65004
 neighbor 10.1.5.1 route-map NOTAG out
`,
		"r4.cfg": `hostname r4
interface to-r1
 ip address 10.1.5.1/31
router bgp 65004
 router-id 0.0.0.4
 neighbor 10.1.5.0 remote-as 65001
`,
	}
}

// locRIBDigest hashes every device's Loc-RIB dump in device order, each
// route with its full attribute set.
func locRIBDigest(procs map[string]*Process) string {
	h := sha256.New()
	for _, name := range sortedProcNames(procs) {
		fmt.Fprintf(h, "%s:\n", name)
		for _, r := range procs[name].LocRIB().All() {
			fmt.Fprintf(h, "  %s %x %d\n", r, r.Key(), r.PeerAS)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedProcNames(procs map[string]*Process) []string {
	names := make([]string, 0, len(procs))
	for n := range procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestLocRIBDigestsPinned converges every oracle network under the
// two-phase round and under Gauss-Seidel rounds in several node orders:
// each must land on the same pinned Loc-RIBs whatever the order.
func TestLocRIBDigestsPinned(t *testing.T) {
	for _, n := range deltaNets() {
		t.Run(n.name, func(t *testing.T) {
			for seed := int64(0); seed <= 3; seed++ {
				procs, _ := buildProcs(t, n.texts(t))
				order := sortedProcNames(procs)
				jacobi := seed == 0
				if !jacobi {
					rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				d := newFixpoint(procs, order, jacobi)
				d.converge(t)
				if n.edit != nil {
					n.edit(procs)
					d.converge(t)
				}
				if got := locRIBDigest(procs); got != n.digest {
					t.Errorf("seed %d (jacobi=%v): Loc-RIB digest %s, want %s", seed, jacobi, got, n.digest)
				}
			}
		})
	}
}

// TestDeltaOracle drives every oracle network with the per-session check
// on (see fixpoint.checkSessions) under the two-phase round the workers run,
// and checks the withdrawals each hand case exists to force did happen:
// a conditional advertisement whose condition flips, an export deny after
// a best-path change, and summary-only suppression after a configuration
// edit.
func TestDeltaOracle(t *testing.T) {
	pfx := route.MustParsePrefix
	wantWithdrawn := map[string][]struct {
		puller, exporter string
		prefix           route.Prefix
	}{
		"conditional-primary": {{"r3", "r2", pfx("172.16.0.0/16")}},
		"withdrawals":         {{"r4", "r1", pfx("10.50.0.0/24")}, {"a", "o", pfx("10.50.0.0/24")}},
	}
	for _, n := range deltaNets() {
		t.Run(n.name, func(t *testing.T) {
			procs, _ := buildProcs(t, n.texts(t))
			d := newFixpoint(procs, sortedProcNames(procs), true)
			d.converge(t)
			if n.edit != nil {
				n.edit(procs)
				d.converge(t)
			}
			for _, w := range wantWithdrawn[n.name] {
				if !d.withdrawn[[2]string{w.puller, w.exporter}][w.prefix] {
					t.Errorf("%s never pulled a withdrawal of %s from %s", w.puller, w.prefix, w.exporter)
				}
			}
			if n.name == "fattree-k4" && len(d.withdrawn) != 0 {
				t.Errorf("a fat-tree's cold run withdrew routes: %v", d.withdrawn)
			}
		})
	}
}

// TestDeltaPullsCarryOnlyChanges checks a converged speaker's delta to a
// cursor one version behind is no larger than its full export, and that
// a pull names no prefix twice however often it was stamped.
func TestDeltaPullsCarryOnlyChanges(t *testing.T) {
	procs, _ := buildProcs(t, withdrawalTexts())
	newFixpoint(procs, sortedProcNames(procs), true).converge(t)
	r1 := procs["r1"]
	full, ver, fresh := r1.ExportsTo("a", 0, false)
	if !fresh || ver < 2 {
		t.Fatalf("full export: fresh=%v version=%d", fresh, ver)
	}
	delta, _, fresh := r1.ExportsTo("a", ver-1, true)
	if !fresh || len(delta) == 0 || len(delta) > len(full) {
		t.Fatalf("delta since %d: fresh=%v %d advertisements, full export %d", ver-1, fresh, len(delta), len(full))
	}
	seen := map[route.Prefix]bool{}
	for _, a := range full {
		if seen[a.Route.Prefix] {
			t.Fatalf("prefix %s exported twice in one pull", a.Route.Prefix)
		}
		seen[a.Route.Prefix] = true
	}
}

// TestResetDropsChangeLog checks a reset speaker holds no change log until
// its next decision, and that an unseen pull after the reset starts over.
func TestResetDropsChangeLog(t *testing.T) {
	procs, _ := buildProcs(t, chainConfig(2))
	runFixpoint(t, procs)
	p := procs["r1"]
	if p.stamp == nil || len(p.changes) == 0 {
		t.Fatal("a decided speaker should hold stamps")
	}
	p.ResetForShard(nil)
	if p.stamp != nil || p.changes != nil || p.condExists != nil || p.adjInBytes != 0 {
		t.Fatal("reset must drop the change log and allocate none")
	}
	if advs, ver, fresh := p.ExportsTo("r2", 0, false); !fresh || ver != 0 || len(advs) != 0 {
		t.Fatalf("unseen pull after reset: %d advertisements at version %d, fresh=%v", len(advs), ver, fresh)
	}
}

// fixpoint runs the paper's Algorithm 1 over in-process speakers, keeping
// one pull cursor per (puller, exporter) session across converge calls,
// and runs the per-session oracle after every import.
type fixpoint struct {
	procs  map[string]*Process
	order  []string
	jacobi bool
	cursor map[[2]string]*pullCursor
	// withdrawn records, per (puller, exporter) session, every prefix a
	// pull withdrew.
	withdrawn map[[2]string]map[route.Prefix]bool
}

type pullCursor struct {
	version uint64
	seen    bool
}

func newFixpoint(procs map[string]*Process, order []string, jacobi bool) *fixpoint {
	return &fixpoint{procs: procs, order: order, jacobi: jacobi,
		cursor: map[[2]string]*pullCursor{}, withdrawn: map[[2]string]map[route.Prefix]bool{}}
}

// pull runs name's pulls from every neighbor into pending, by neighbor.
func (d *fixpoint) pull(name string, pending map[string][]Advertisement) {
	p := d.procs[name]
	for _, nb := range p.NeighborNames() {
		exp, ok := d.procs[nb]
		if !ok {
			continue
		}
		key := [2]string{name, nb}
		c := d.cursor[key]
		if c == nil {
			c = &pullCursor{}
			d.cursor[key] = c
		}
		advs, ver, fresh := exp.ExportsTo(name, c.version, c.seen)
		if !fresh {
			continue
		}
		c.version, c.seen = ver, true
		pending[nb] = advs
		for _, a := range advs {
			if a.Withdrawn {
				if d.withdrawn[key] == nil {
					d.withdrawn[key] = map[route.Prefix]bool{}
				}
				d.withdrawn[key][a.Route.Prefix] = true
			}
		}
	}
}

// importAll imports name's pending pulls, reporting whether an
// Adj-RIB-In changed, and runs the oracle on name's sessions.
func (d *fixpoint) importAll(t *testing.T, name string, pending map[string][]Advertisement) bool {
	t.Helper()
	changed := false
	for _, nb := range sortedKeys(pending) {
		if d.procs[name].ImportFrom(nb, pending[nb]) {
			changed = true
		}
	}
	d.checkSessions(t, name)
	return changed
}

// checkSessions is the per-session delta oracle. Each of name's
// Adj-RIB-Ins, built by delta pulls, must equal what an empty replica of
// name builds from an unseen pull of the same exporter, and the
// incrementally kept Adj-RIB-In bytes must equal a full re-sum. It runs
// between an import and the next decision, when the exporters are as the
// pulls saw them.
func (d *fixpoint) checkSessions(t *testing.T, name string) {
	t.Helper()
	p := d.procs[name]
	var sum int64
	for _, nb := range p.NeighborNames() {
		for _, r := range p.adjIn[nb] {
			sum += r.ModelBytes()
		}
		exp, ok := d.procs[nb]
		if !ok {
			continue
		}
		replica := p.replica()
		advs, _, _ := exp.ExportsTo(name, 0, false)
		replica.ImportFrom(nb, advs)
		want, got := replica.adjIn[nb], p.adjIn[nb]
		if len(want) != len(got) {
			t.Fatalf("%s's Adj-RIB-In from %s holds %d prefixes, an unseen pull builds %d", name, nb, len(got), len(want))
		}
		for pfx, r := range want {
			if g, ok := got[pfx]; !ok || !g.Equal(r) {
				t.Fatalf("%s's Adj-RIB-In from %s: %s is %v, an unseen pull builds %v", name, nb, pfx, g, r)
			}
		}
	}
	if sum != p.adjInBytes {
		t.Fatalf("%s's Adj-RIB-In bytes kept as %d, re-summed %d", name, p.adjInBytes, sum)
	}
}

// decide runs name's decision and checks what it reports: a change
// exactly when the Loc-RIB or the suppressed set changed, which is what
// ends the fixed point.
func (d *fixpoint) decide(t *testing.T, name string) bool {
	t.Helper()
	p := d.procs[name]
	rib, suppressed := p.locRIB, p.suppressed
	got := p.RunDecision()
	if want := !rib.Equal(p.locRIB) || !maps.Equal(suppressed, p.suppressed); got != want {
		t.Fatalf("%s's decision reported change=%v, its Loc-RIB or suppressed set changed=%v", name, got, want)
	}
	return got
}

// replica is an empty speaker for p's device and sessions.
func (p *Process) replica() *Process {
	sessions := make([]topology.BGPSession, 0, len(p.sessions))
	for _, s := range p.sessions {
		sessions = append(sessions, s)
	}
	return NewProcess(p.dev, sessions, nil)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// converge runs rounds until no node changes. With jacobi every pull of a
// round is gathered before any node imports, as the workers' two-phase
// round does; otherwise each node pulls, imports and decides in turn.
func (d *fixpoint) converge(t *testing.T) int {
	t.Helper()
	for round := 1; round <= 64; round++ {
		changed := false
		if d.jacobi {
			pending := map[string]map[string][]Advertisement{}
			for _, name := range d.order {
				pending[name] = map[string][]Advertisement{}
				d.pull(name, pending[name])
			}
			for _, name := range d.order {
				d.importAll(t, name, pending[name])
			}
			for _, name := range d.order {
				if d.decide(t, name) {
					changed = true
				}
			}
		} else {
			for _, name := range d.order {
				pending := map[string][]Advertisement{}
				d.pull(name, pending)
				if d.importAll(t, name, pending) {
					changed = true
				}
				if d.decide(t, name) {
					changed = true
				}
			}
		}
		if !changed {
			return round
		}
	}
	t.Fatal("fixpoint did not converge in 64 rounds")
	return 0
}

func aggregateOf(prefix string) config.Aggregate {
	return config.Aggregate{Prefix: route.MustParsePrefix(prefix), SummaryOnly: true}
}

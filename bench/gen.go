package main

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"

	"s2"
)

// Everything the program under test sees is made here from the seed: config
// texts with planted faults, standing intents, the delta script, the query
// pool and the request schedule. The same seed gives byte-identical inputs;
// the seed never changes how much work a run does, only which devices and
// prefixes it touches, so runs on different seeds are comparable.

// fatTree is a seeded FatTree input plus what the closed-form oracle needs.
type fatTree struct {
	k      int
	texts  map[string]string
	edges  []string          // edge switches, sorted
	aggs   []string          // aggregation switches, sorted
	cores  []string          // core switches, sorted
	prefix map[string]string // edge -> the /24 it announces
	// Planted faults: withdrawn edges lost their origination (they stop
	// being prefix owners); blocked edges drop traffic to their own prefix on
	// the host port (they stay owners and become unreachable).
	withdrawn, blocked map[string]bool
}

const blockACL = "ip access-list BENCH_BLOCK\n deny ip any %s\n permit ip any any\ninterface vlan10\n ip access-group BENCH_BLOCK out\n"

func genFatTree(k int, rng *rand.Rand, nWithdraw, nBlock int) (*fatTree, error) {
	net, err := s2.SynthesizeFatTree(s2.FatTreeSpec{K: k})
	if err != nil {
		return nil, err
	}
	ft := &fatTree{
		k: k, texts: net.ConfigTexts(), prefix: map[string]string{},
		withdrawn: map[string]bool{}, blocked: map[string]bool{},
	}
	for _, name := range net.Devices() {
		switch {
		case strings.HasPrefix(name, "edge-"):
			ft.edges = append(ft.edges, name)
			ft.prefix[name] = networkLines(ft.texts[name])[0]
		case strings.HasPrefix(name, "agg-"):
			ft.aggs = append(ft.aggs, name)
		default:
			ft.cores = append(ft.cores, name)
		}
	}
	if nWithdraw+nBlock > len(ft.edges) {
		return nil, fmt.Errorf("gen: %d faults do not fit %d edges", nWithdraw+nBlock, len(ft.edges))
	}
	perm := rng.Perm(len(ft.edges))
	for _, i := range perm[:nWithdraw] {
		e := ft.edges[i]
		ft.withdrawn[e] = true
		ft.texts[e] = withdraw(ft.texts[e], ft.prefix[e])
	}
	for _, i := range perm[nWithdraw : nWithdraw+nBlock] {
		e := ft.edges[i]
		ft.blocked[e] = true
		ft.texts[e] = strings.Replace(ft.texts[e], "!\nrouter bgp",
			fmt.Sprintf(blockACL, ft.prefix[e])+"!\nrouter bgp", 1)
	}
	return ft, nil
}

// healthy lists the edges without a planted fault, sorted.
func (ft *fatTree) healthy() []string {
	var out []string
	for _, e := range ft.edges {
		if !ft.withdrawn[e] && !ft.blocked[e] {
			out = append(out, e)
		}
	}
	return out
}

// networkLines returns the prefixes of a config's BGP network statements.
func networkLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, " network ") {
			out = append(out, strings.TrimPrefix(line, " network "))
		}
	}
	return out
}

func withdraw(text, prefix string) string {
	return strings.Replace(text, " network "+prefix+"\n", "", 1)
}

// announce puts the network statement back where the generator had it,
// ahead of the first neighbor statement.
func announce(text, prefix string) string {
	return strings.Replace(text, " neighbor ", " network "+prefix+"\n neighbor ", 1)
}

// toggle swaps a for b in text, or b for a when a is absent.
func toggle(text, a, b string) string {
	if strings.Contains(text, a) {
		return strings.Replace(text, a, b, 1)
	}
	return strings.Replace(text, b, a, 1)
}

// query is one reachability question: can src reach the owner of dstPrefix
// (on TCP port, 0 = any)?
type query struct {
	Src, Dst, DstPrefix string
	Port                uint16
}

func (q query) s2() s2.Query {
	out := s2.Query{DstPrefix: q.DstPrefix, Sources: []string{q.Src}, Dests: []string{q.Dst}, DstPort: q.Port}
	if q.Port != 0 {
		out.Protocol = 6
	}
	return out
}

// wire is the POST /v1/queries form of the query.
func (q query) wire() map[string]any {
	out := map[string]any{"dst_prefix": q.DstPrefix, "sources": []string{q.Src}, "dests": []string{q.Dst}}
	if q.Port != 0 {
		out["dst_port"] = q.Port
		out["protocol"] = 6
	}
	return out
}

// flappers picks the healthy edges whose origination the delta script and
// the churn writer toggle.
func (ft *fatTree) flappers(rng *rand.Rand, n int) []string {
	h := ft.healthy()
	rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
	out := append([]string(nil), h[:n]...)
	sort.Strings(out)
	return out
}

// intents picks n standing intents; every second one targets a flapper so
// that origination deltas change answers.
func (ft *fatTree) intents(rng *rand.Rand, n int, flappers []string) []query {
	out := make([]query, 0, n)
	for i := 0; i < n; i++ {
		dst := ft.edges[rng.Intn(len(ft.edges))]
		if i%2 == 0 {
			dst = flappers[(i/2)%len(flappers)]
		}
		src := dst
		for src == dst {
			src = ft.edges[rng.Intn(len(ft.edges))]
		}
		out = append(out, query{Src: src, Dst: dst, DstPrefix: ft.prefix[dst]})
	}
	return out
}

// delta is one single-device config change. Withdrawn is the set of flapper
// edges without an origination once it is applied: the state the oracle
// answers against.
type delta struct {
	Class, Device, Text string
	Withdrawn           map[string]bool
}

var deltaClasses = []string{"noop", "dp", "orig", "policy"}

// deltaGen makes the delta script block by block: four deltas, one per
// class in seeded order, so any whole number of blocks has the same class
// mix. Classes edit disjoint device sets (noop: edges, dp: cores, orig:
// flappers, policy: aggs), which keeps every delta single-class.
type deltaGen struct {
	ft        *fatTree
	rng       *rand.Rand
	flappers  []string
	cur       map[string]string
	withdrawn map[string]bool
	blocks    int
}

func (ft *fatTree) newDeltaGen(rng *rand.Rand, flappers []string) *deltaGen {
	return &deltaGen{ft: ft, rng: rng, flappers: flappers, cur: maps.Clone(ft.texts), withdrawn: map[string]bool{}}
}

func (g *deltaGen) block() []delta {
	ft, rng, cur := g.ft, g.rng, g.cur
	var out []delta
	for _, ci := range rng.Perm(len(deltaClasses)) {
		d := delta{Class: deltaClasses[ci]}
		switch d.Class {
		case "noop":
			d.Device = ft.edges[rng.Intn(len(ft.edges))]
			d.Text = cur[d.Device] + fmt.Sprintf("! bench note %d\n", g.blocks)
		case "dp":
			d.Device = ft.cores[rng.Intn(len(ft.cores))]
			d.Text = toggle(cur[d.Device], "description link to", "description uplink to")
		case "orig":
			d.Device = g.flappers[rng.Intn(len(g.flappers))]
			if g.withdrawn[d.Device] {
				d.Text = announce(cur[d.Device], ft.prefix[d.Device])
				delete(g.withdrawn, d.Device)
			} else {
				d.Text = withdraw(cur[d.Device], ft.prefix[d.Device])
				g.withdrawn[d.Device] = true
			}
		case "policy":
			d.Device = ft.aggs[rng.Intn(len(ft.aggs))]
			d.Text = toggle(cur[d.Device], "maximum-paths 64", "maximum-paths 4")
		}
		cur[d.Device] = d.Text
		d.Withdrawn = maps.Clone(g.withdrawn)
		out = append(out, d)
	}
	g.blocks++
	return out
}

// flapScript is the churn writer's script: n origination deltas that
// alternately withdraw and re-announce seeded flappers.
func (ft *fatTree) flapScript(rng *rand.Rand, n int, flappers []string) []delta {
	cur := maps.Clone(ft.texts)
	withdrawn := map[string]bool{}
	var out []delta
	var last string
	for i := 0; i < n; i++ {
		d := delta{Class: "orig"}
		if i%2 == 0 {
			last = flappers[rng.Intn(len(flappers))]
			d.Text = withdraw(cur[last], ft.prefix[last])
			withdrawn[last] = true
		} else {
			d.Text = announce(cur[last], ft.prefix[last])
			delete(withdrawn, last)
		}
		d.Device = last
		cur[last] = d.Text
		d.Withdrawn = maps.Clone(withdrawn)
		out = append(out, d)
	}
	return out
}

var poolPorts = []uint16{22, 80, 443, 8080}

// queryPool picks n distinct (src, dst-prefix, port) queries; their order is
// their popularity rank.
func (ft *fatTree) queryPool(rng *rand.Rand, n int) ([]query, error) {
	var all []query
	for _, src := range ft.edges {
		for _, dst := range ft.edges {
			if src == dst {
				continue
			}
			for _, port := range poolPorts {
				all = append(all, query{Src: src, Dst: dst, DstPrefix: ft.prefix[dst], Port: port})
			}
		}
	}
	if n > len(all) {
		return nil, fmt.Errorf("gen: pool of %d exceeds the %d distinct queries of k=%d", n, len(all), ft.k)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:n], nil
}

// zipfS is the popularity skew of the request schedule.
const zipfS = 1.1

// schedule is one client's deterministic request stream over a pool: ranks
// drawn Zipf(zipfS), the pool query sent as it is (cacheable). Every
// adhocEvery-th request stands for an ad-hoc question: it keeps the drawn
// pair but gets a port no request used before, so it can never be answered
// from the cache. A fixed cadence, not a random share, keeps the number of
// symbolic passes per request the same in every slice of every run.
type schedule struct {
	pool       []query
	adhocEvery int
	zipf       *rand.Zipf
	sent       int
	nextPort   uint16
	stride     uint16
}

// adhocBase is the first ad-hoc port; pool ports all lie below it.
const adhocBase = 10000

func newSchedule(pool []query, adhocEvery int, seed int64, client, clients int) *schedule {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	return &schedule{
		pool: pool, adhocEvery: adhocEvery,
		zipf:     rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1)),
		nextPort: adhocBase + uint16(client), stride: uint16(clients),
	}
}

// next returns the next request and whether it is ad-hoc; rank is its
// query's place in the pool.
func (s *schedule) next() (q query, rank int, adhoc bool) {
	rank = int(s.zipf.Uint64())
	q = s.pool[rank]
	s.sent++
	if s.sent%s.adhocEvery != 0 {
		return q, rank, false
	}
	q.Port = s.nextPort
	s.nextPort += s.stride
	if s.nextPort < adhocBase { // wrapped round the 16-bit port space
		s.nextPort += adhocBase
	}
	return q, rank, true
}

// dcn is the seeded policy-rich DCN input: the generated texts with a few
// VLAN originations withdrawn, and the intents that make up its verdict.
type dcn struct {
	texts   map[string]string
	intents []query
}

func genDCN(spec s2.DCNSpec, rng *rand.Rand, nWithdraw, nIntents int) (*dcn, error) {
	net, err := s2.SynthesizeDCN(spec)
	if err != nil {
		return nil, err
	}
	d := &dcn{texts: net.ConfigTexts()}
	var tors []string
	vlans := map[string][]string{}
	for _, name := range net.Devices() {
		if !strings.Contains(name, "-l0-") {
			continue
		}
		tors = append(tors, name)
		for _, p := range networkLines(d.texts[name]) {
			if strings.HasSuffix(p, "/24") {
				vlans[name] = append(vlans[name], p)
			}
		}
	}
	if len(tors) < 2 {
		return nil, fmt.Errorf("gen: DCN needs at least two TORs, has %d", len(tors))
	}
	// Withdraw one VLAN on each of nWithdraw TORs and aim the first intents
	// at exactly those prefixes, so the verdict holds failing intents too.
	var lost []query
	for _, i := range rng.Perm(len(tors))[:nWithdraw] {
		t := tors[i]
		p := vlans[t][rng.Intn(len(vlans[t]))]
		d.texts[t] = withdraw(d.texts[t], p)
		lost = append(lost, query{Dst: t, DstPrefix: p})
	}
	for i := 0; i < nIntents; i++ {
		var q query
		if i < len(lost) {
			q = lost[i]
		} else {
			q.Dst = tors[rng.Intn(len(tors))]
			q.DstPrefix = vlans[q.Dst][rng.Intn(len(vlans[q.Dst]))]
		}
		q.Src = q.Dst
		for q.Src == q.Dst {
			q.Src = tors[rng.Intn(len(tors))]
		}
		d.intents = append(d.intents, q)
	}
	return d, nil
}

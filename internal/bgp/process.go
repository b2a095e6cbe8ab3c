package bgp

import (
	"slices"
	"sort"
	"sync"

	"s2/internal/config"
	"s2/internal/metrics"
	"s2/internal/policy"
	"s2/internal/route"
	"s2/internal/topology"
)

// defaultLocalPref is the local preference assigned to routes received over
// eBGP and to locally originated routes.
const defaultLocalPref = 100

// PrefixFilter restricts which prefixes a process may originate during a
// prefix-shard round (§4.5). A nil filter admits everything.
type PrefixFilter func(route.Prefix) bool

// Process is the BGP speaker for one device. It follows the pull model of
// the paper's Algorithm 1: neighbors call ExportsTo to obtain the
// advertisements that changed since their cursor and patch them into their
// Adj-RIB-In with ImportFrom before their own RunDecision.
//
// A Process is confined to its worker, but within a worker many node
// goroutines may touch it at once: parallel gather tasks pull from the same
// exporter concurrently (and ExportsTo records used conditions, a write),
// while apply tasks mutate only their own process. The per-process mutex
// serializes those entry points; no method calls another locked method and
// no task holds two process locks, so the locking is cycle-free.
//
// A delta pull is only sound against the Adj-RIB-In the previous pulls
// built, so a puller's cursors and its Adj-RIB-Ins are reset together:
// ResetForShard clears the Adj-RIB-Ins, and every caller drops its cursors
// at the same point (Worker.BeginShard resets the worker's pull tracker,
// the baseline starts each shard with a fresh pull map).
type Process struct {
	mu       sync.Mutex
	dev      *config.Device
	cfg      *config.BGPConfig
	vsb      config.VSB
	eval     *policy.Evaluator
	sessions map[string]topology.BGPSession // by remote device name

	filter PrefixFilter

	// adjIn holds accepted post-import routes per neighbor, keyed by
	// neighbor device name then prefix; adjInBytes is their modelled
	// footprint, kept as ImportFrom patches them.
	adjIn      map[string]map[route.Prefix]*route.Route
	adjInBytes int64

	// locRIB is the BGP RIB: best (plus ECMP) routes per prefix.
	locRIB *route.RIB
	// suppressed marks prefixes covered by an active summary-only
	// aggregate; they stay in the RIB/FIB but are not exported.
	suppressed map[route.Prefix]bool

	// external carries routes available for redistribution, by source
	// ("connected", "static", "ospf").
	external map[string][]*route.Route

	// version counts the decisions that changed what this speaker
	// exports. stamp holds each prefix's last stamp, and changes logs
	// every stamp in version order; an entry whose prefix was stamped
	// again later is superseded. ExportsTo walks changes past a puller's
	// cursor. Both stay nil from a reset to the next decision.
	version uint64
	stamp   map[route.Prefix]prefixStamp
	changes []stampEntry

	// condExists records, per conditional-advertisement prefix list,
	// whether the Loc-RIB held a prefix it permits at the last decision
	// (nil, all false, while the Loc-RIB is empty).
	condExists map[string]bool

	// usedConditions records the prefix-lists consulted by conditional
	// advertisement during the current shard round — the raw material for
	// runtime dependency detection (§7, "collect prefix dependencies when
	// computing routes").
	usedConditions map[string]bool

	tracker *metrics.Tracker
}

// prefixStamp is a prefix's last change: the version it changed at, whether it
// was then live (installed and not suppressed), and if not, deadFrom —
// the version since which it has not been live, 0 if it never was. A
// puller whose cursor is at or past deadFrom holds no route for the prefix
// from this speaker, so it needs no withdrawal.
type prefixStamp struct {
	version, deadFrom uint64
	live              bool
}

// stampEntry is one entry of the change log: prefix changed at version.
type stampEntry struct {
	version uint64
	prefix  route.Prefix
}

// NewProcess builds the speaker for dev. sessions are the device's resolved
// BGP sessions; tracker (optional) receives modelled memory gauges.
func NewProcess(dev *config.Device, sessions []topology.BGPSession, tracker *metrics.Tracker) *Process {
	p := &Process{
		dev:        dev,
		cfg:        dev.BGP,
		vsb:        dev.Vendor.Behaviours(),
		eval:       policy.NewEvaluator(dev),
		sessions:   make(map[string]topology.BGPSession, len(sessions)),
		adjIn:      make(map[string]map[route.Prefix]*route.Route),
		locRIB:     route.NewRIB(),
		suppressed: make(map[route.Prefix]bool),
		external:   make(map[string][]*route.Route),
		tracker:    tracker,

		usedConditions: make(map[string]bool),
	}
	for _, s := range sessions {
		p.sessions[s.Remote] = s
	}
	return p
}

// Device returns the underlying device model.
func (p *Process) Device() *config.Device { return p.dev }

// NeighborNames returns the devices this speaker has sessions with, sorted.
func (p *Process) NeighborNames() []string {
	out := make([]string, 0, len(p.sessions))
	for n := range p.sessions {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LocRIB exposes the computed BGP RIB.
func (p *Process) LocRIB() *route.RIB { return p.locRIB }

// SetExternalRoutes provides routes from another protocol for
// redistribution ("connected" and "static" are derived internally; use this
// for "ospf").
func (p *Process) SetExternalRoutes(source string, routes []*route.Route) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.external[source] = routes
}

// ResetForShard clears all learned and computed state and installs the
// prefix filter for the next shard round. The change log goes with it, so
// every puller must drop its cursor on this speaker at the same point (see
// Process). Peak memory gauges on the tracker survive, mirroring how
// freeing a shard lowers live usage but not the observed peak.
func (p *Process) ResetForShard(filter PrefixFilter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.filter = filter
	p.adjIn = make(map[string]map[route.Prefix]*route.Route)
	p.adjInBytes = 0
	p.locRIB = route.NewRIB()
	p.suppressed = make(map[route.Prefix]bool)
	p.version = 0
	p.stamp, p.changes, p.condExists = nil, nil, nil
	p.usedConditions = make(map[string]bool)
	p.updateGauges()
}

// UsedConditions returns the prefix-list names consulted by conditional
// advertisement since the last shard reset, sorted.
func (p *Process) UsedConditions() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.usedConditions))
	for name := range p.usedConditions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// conditionsFlipped re-evaluates every conditional-advertisement prefix
// list against the decided Loc-RIB next — does it hold a prefix the list
// permits? — and reports whether any answer changed since the last
// decision. A flip can change the export of every prefix.
func (p *Process) conditionsFlipped(next *route.RIB) bool {
	var exists map[string]bool
	for _, nb := range p.cfg.Neighbors {
		if nb.AdvertiseMap == "" || nb.ConditionList == "" {
			continue
		}
		if exists == nil {
			exists = map[string]bool{}
		} else if _, done := exists[nb.ConditionList]; done {
			continue
		}
		found := false
		if pl, ok := p.dev.PrefixLists[nb.ConditionList]; ok {
			next.Range(func(pfx route.Prefix, _ []*route.Route) {
				found = found || pl.Permits(pfx)
			})
		}
		exists[nb.ConditionList] = found
	}
	flipped := false
	for list, found := range exists {
		flipped = flipped || found != p.condExists[list]
	}
	p.condExists = exists
	return flipped
}

func (p *Process) admits(pfx route.Prefix) bool {
	return p.filter == nil || p.filter(pfx)
}

// originated computes the locally originated candidates: network statements
// (validated against local non-BGP routes) and redistributions, restricted
// by the shard filter.
func (p *Process) originated() []*route.Route {
	var out []*route.Route

	localPrefixes := map[route.Prefix]bool{}
	for _, pfx := range p.dev.ConnectedPrefixes() {
		localPrefixes[pfx] = true
	}
	for _, sr := range p.dev.StaticRoutes {
		localPrefixes[sr.Prefix] = true
	}
	for _, r := range p.external["ospf"] {
		localPrefixes[r.Prefix] = true
	}

	for _, pfx := range p.cfg.Networks {
		if !p.admits(pfx) || !localPrefixes[pfx] {
			continue
		}
		out = append(out, &route.Route{
			Prefix:       pfx,
			Protocol:     route.BGP,
			Origin:       route.OriginIGP,
			LocalPref:    defaultLocalPref,
			OriginatorID: p.cfg.RouterID,
		})
	}

	origin := route.OriginIGP
	if p.vsb.DefaultOriginIncomplete {
		origin = route.OriginIncomplete
	}
	for _, rd := range p.cfg.Redistribute {
		var sources []route.Prefix
		switch rd.Source {
		case "connected":
			sources = p.dev.ConnectedPrefixes()
		case "static":
			for _, sr := range p.dev.StaticRoutes {
				sources = append(sources, sr.Prefix)
			}
		case "ospf":
			for _, r := range p.external["ospf"] {
				sources = append(sources, r.Prefix)
			}
		}
		for _, pfx := range sources {
			if !p.admits(pfx) {
				continue
			}
			cand := &route.Route{
				Prefix:       pfx,
				Protocol:     route.BGP,
				Origin:       origin,
				LocalPref:    defaultLocalPref,
				OriginatorID: p.cfg.RouterID,
			}
			if rd.RouteMap != "" {
				transformed, res := p.eval.Apply(rd.RouteMap, cand)
				if res != policy.PermitRoute {
					continue
				}
				cand = transformed
			}
			out = append(out, cand)
		}
	}
	return out
}

// Advertisement is the wire form of one exported prefix: the route the
// exporter sends, or, when Withdrawn, word that it no longer sends any
// route for Route.Prefix (Route then carries only the prefix).
type Advertisement struct {
	Route     *route.Route
	Withdrawn bool
}

// ExportsTo returns what changed for neighbor (a device name) since its
// cursor: one advertisement — a route or a withdrawal — per prefix stamped
// after since, in stamp order, leaving out the withdrawals of prefixes
// that were not live at since either. An unseen cursor is since = 0, when
// nothing was live, so it gets every live prefix; a cursor ahead of the
// version predates the last reset and is served the same way. When
// nothing changed it returns (nil, version, false), letting remote pulls
// skip serialization.
func (p *Process) ExportsTo(neighbor string, since uint64, seen bool) ([]Advertisement, uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seen && since == p.version {
		return nil, p.version, false
	}
	s, ok := p.sessions[neighbor]
	if !ok {
		return nil, p.version, false
	}
	nb := p.cfg.Neighbors[s.RemoteIP]
	if nb == nil {
		return nil, p.version, false
	}
	if !seen || since > p.version {
		since = 0
	}
	from := sort.Search(len(p.changes), func(i int) bool { return p.changes[i].version > since })
	advs := make([]Advertisement, 0, len(p.changes)-from)
	for _, c := range p.changes[from:] {
		st := p.stamp[c.prefix]
		if st.version == c.version && (st.live || st.deadFrom > since) {
			advs = append(advs, p.exportOne(s, nb, c.prefix))
		}
	}
	return advs, p.version, true
}

// exportOne is the export of one prefix over session s: the best route
// after export processing, or a withdrawal when nothing is exported — the
// prefix is absent or suppressed, iBGP-learned toward an iBGP peer, held
// back by a conditional advertisement, or denied by export policy.
func (p *Process) exportOne(s topology.BGPSession, nb *config.Neighbor, pfx route.Prefix) Advertisement {
	withdraw := Advertisement{Route: &route.Route{Prefix: pfx}, Withdrawn: true}
	installed := p.locRIB.Get(pfx)
	if len(installed) == 0 || p.suppressed[pfx] {
		return withdraw
	}
	best := installed[0] // canonical representative of the ECMP set

	// iBGP learned routes are not re-advertised to iBGP peers
	// (no route reflection).
	if !s.EBGP() && best.Protocol == route.IBGP {
		return withdraw
	}
	out := best.Clone()
	if s.EBGP() {
		// MED is not propagated for transit routes.
		if out.NextHopNode != "" {
			out.Metric = 0
		}
		out.LocalPref = defaultLocalPref
	}
	// Conditional advertisement: routes matched by the advertise-map are
	// sent only while the condition holds; unmatched routes are
	// unaffected. policy.Apply returns out itself or a fresh copy, so out
	// stays this export's own.
	if nb.AdvertiseMap != "" && nb.ConditionList != "" {
		transformed, res := p.eval.Apply(nb.AdvertiseMap, out)
		if res == policy.PermitRoute {
			// The condition gated a route this shard actually computes:
			// record the dependency for §7 runtime detection.
			p.usedConditions[nb.ConditionList] = true
			if p.condExists[nb.ConditionList] == nb.ConditionAbsence {
				return withdraw
			}
			out = transformed
		}
	}
	// Export policy sees the route before AS-path manipulation.
	if nb.ExportPolicy != "" {
		transformed, res := p.eval.Apply(nb.ExportPolicy, out)
		if res != policy.PermitRoute {
			return withdraw
		}
		out = transformed
	}
	if s.EBGP() {
		if nb.RemovePrivateAS {
			out.ASPath = config.StripPrivateASNs(out.ASPath, p.vsb.RemovePrivateASAll)
		}
		out.ASPath = append([]uint32{p.cfg.ASN}, out.ASPath...)
		out.NextHop = s.LocalIP
	} else if nb.NextHopSelf {
		out.NextHop = s.LocalIP
	}
	out.NextHopNode = p.dev.Hostname
	out.Protocol = route.BGP
	return Advertisement{Route: out}
}

// ImportFrom patches neighbor's Adj-RIB-In with a delta of its
// advertisements: each route replaces the prefix's entry after import
// processing, and a withdrawal — or a route that import processing rejects
// — removes it. Exporters send each prefix at most once per delta. It
// reports whether the Adj-RIB-In changed (requiring a decision run).
func (p *Process) ImportFrom(neighbor string, advs []Advertisement) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[neighbor]
	if !ok {
		return false
	}
	nb := p.cfg.Neighbors[s.RemoteIP]
	if nb == nil {
		return false
	}

	in := p.adjIn[neighbor]
	changed := false
	for _, adv := range advs {
		pfx := adv.Route.Prefix
		var r *route.Route
		if !adv.Withdrawn {
			r = p.importOne(s, nb, neighbor, adv.Route)
		}
		old, had := in[pfx]
		switch {
		case r == nil:
			if !had {
				continue
			}
			delete(in, pfx)
		case had && old.Equal(r):
			continue
		default:
			if in == nil {
				in = make(map[route.Prefix]*route.Route, len(advs))
				p.adjIn[neighbor] = in
			}
			in[pfx] = r
			p.adjInBytes += r.ModelBytes()
		}
		if had {
			p.adjInBytes -= old.ModelBytes()
		}
		changed = true
	}
	if changed {
		p.updateGauges()
	}
	return changed
}

// importOne is import processing of one advertised route from neighbor,
// or nil when loop prevention or import policy rejects it.
func (p *Process) importOne(s topology.BGPSession, nb *config.Neighbor, neighbor string, adv *route.Route) *route.Route {
	r := adv.Clone()
	// Receiver-side loop prevention.
	if s.EBGP() && !nb.AllowASIn && r.ASPathContains(p.cfg.ASN) {
		return nil
	}
	if s.EBGP() {
		r.Protocol = route.BGP
		r.LocalPref = defaultLocalPref
	} else {
		r.Protocol = route.IBGP
	}
	r.PeerAS = s.RemoteAS
	r.NextHopNode = neighbor
	if r.NextHop == 0 {
		r.NextHop = s.RemoteIP
	}
	if nb.ImportPolicy != "" {
		transformed, res := p.eval.Apply(nb.ImportPolicy, r)
		if res != policy.PermitRoute {
			return nil
		}
		r = transformed
	}
	return r
}

// RunDecision recomputes the Loc-RIB from local origination, Adj-RIB-Ins,
// and aggregate activation, and reports whether the Loc-RIB or the
// suppressed set changed. When an export can have changed it bumps the
// export version and stamps, at that version, exactly the prefixes whose
// exported route (the first installed one), presence or suppression
// changed — every prefix when a conditional-advertisement condition
// flipped.
func (p *Process) RunDecision() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	cands := make(map[route.Prefix][]*route.Route, p.locRIB.Len())
	add := func(r *route.Route) { cands[r.Prefix] = append(cands[r.Prefix], r) }

	for _, r := range p.originated() {
		add(r)
	}
	neighbors := make([]string, 0, len(p.adjIn))
	for n := range p.adjIn {
		neighbors = append(neighbors, n)
	}
	sort.Strings(neighbors)
	for _, n := range neighbors {
		for _, r := range p.adjIn[n] {
			add(r)
		}
	}

	next := route.NewRIB()
	for pfx, cs := range cands {
		next.SetRoutes(pfx, selectBest(cs, p.cfg.MaxPaths, p.vsb))
	}

	suppressed := p.applyAggregates(next)

	// An export reads only a prefix's first installed route, the ECMP
	// set's canonical representative, so the rest of the set changes the
	// Loc-RIB without changing any export.
	var dirty []route.Prefix
	changed := next.Len() != p.locRIB.Len()
	next.Range(func(pfx route.Prefix, rs []*route.Route) {
		old := p.locRIB.Get(pfx)
		switch {
		case len(old) == 0 || !old[0].Equal(rs[0]):
			dirty = append(dirty, pfx)
			changed = true
		case !changed:
			changed = !slices.EqualFunc(old, rs, (*route.Route).Equal)
		}
	})
	p.locRIB.Range(func(pfx route.Prefix, _ []*route.Route) {
		if next.Get(pfx) == nil {
			dirty = append(dirty, pfx)
		}
	})
	for pfx := range suppressed {
		if !p.suppressed[pfx] {
			dirty = append(dirty, pfx)
			changed = true
		}
	}
	for pfx := range p.suppressed {
		if !suppressed[pfx] {
			dirty = append(dirty, pfx)
			changed = true
		}
	}
	if p.conditionsFlipped(next) {
		dirty = append(dirty, next.Prefixes()...)
	}
	p.locRIB = next
	p.suppressed = suppressed
	p.updateGauges()
	if len(dirty) > 0 {
		p.version++
		p.stampAll(dirty)
	}
	return changed
}

// stampAll stamps prefixes (in any order, repeats allowed) at the current
// version, logging them in prefix order so exports are deterministic. Once
// the log holds more than twice as many entries as there are stamped
// prefixes, the superseded entries are dropped.
func (p *Process) stampAll(prefixes []route.Prefix) {
	slices.SortFunc(prefixes, route.Prefix.Compare)
	prefixes = slices.Compact(prefixes)
	if p.stamp == nil {
		p.stamp = make(map[route.Prefix]prefixStamp, len(prefixes))
	}
	for _, pfx := range prefixes {
		st := p.stamp[pfx]
		live := p.locRIB.Get(pfx) != nil && !p.suppressed[pfx]
		if st.live && !live {
			st.deadFrom = p.version
		}
		st.version, st.live = p.version, live
		p.stamp[pfx] = st
		p.changes = append(p.changes, stampEntry{version: p.version, prefix: pfx})
	}
	if len(p.changes) > 2*len(p.stamp) {
		p.changes = slices.DeleteFunc(p.changes, func(c stampEntry) bool { return p.stamp[c.prefix].version != c.version })
	}
}

// applyAggregates activates configured aggregates against the computed RIB,
// most specific first so an activated aggregate can contribute to a broader
// one, and returns the suppressed prefix set.
func (p *Process) applyAggregates(rib *route.RIB) map[route.Prefix]bool {
	suppressed := map[route.Prefix]bool{}
	if len(p.cfg.Aggregates) == 0 {
		return suppressed
	}
	aggs := append([]config.Aggregate(nil), p.cfg.Aggregates...)
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].Prefix.Len != aggs[j].Prefix.Len {
			return aggs[i].Prefix.Len > aggs[j].Prefix.Len
		}
		return aggs[i].Prefix.Compare(aggs[j].Prefix) < 0
	})
	for _, agg := range aggs {
		if !p.admits(agg.Prefix) {
			continue
		}
		var contributors []route.Prefix
		for _, pfx := range rib.Prefixes() {
			if pfx != agg.Prefix && agg.Prefix.Covers(pfx) {
				contributors = append(contributors, pfx)
			}
		}
		if len(contributors) == 0 {
			continue
		}
		ar := &route.Route{
			Prefix:       agg.Prefix,
			Protocol:     route.Aggregate,
			Origin:       route.OriginIGP,
			LocalPref:    defaultLocalPref,
			OriginatorID: p.cfg.RouterID,
		}
		if agg.AttributeMap != "" {
			transformed, res := p.eval.Apply(agg.AttributeMap, ar)
			if res != policy.PermitRoute {
				continue
			}
			ar = transformed
		}
		existing := rib.Get(agg.Prefix)
		rib.SetRoutes(agg.Prefix, selectBest(append([]*route.Route{ar}, existing...), p.cfg.MaxPaths, p.vsb))
		if agg.SummaryOnly {
			for _, c := range contributors {
				suppressed[c] = true
			}
		}
	}
	return suppressed
}

// updateGauges refreshes the tracker's modelled memory for this node.
func (p *Process) updateGauges() {
	if p.tracker == nil {
		return
	}
	p.tracker.Set("bgp.rib."+p.dev.Hostname, p.locRIB.ModelBytes())
	p.tracker.Set("bgp.adjin."+p.dev.Hostname, p.adjInBytes)
}

package dataplane

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"s2/internal/bdd"
	"s2/internal/route"
)

// FinalState classifies where a symbolic packet's journey ended (§4.3).
type FinalState uint8

const (
	// Arrive: delivered at a destination node or the node holding the
	// destination prefix.
	Arrive FinalState = iota
	// Exit: left the network through an edge port that is not a
	// destination.
	Exit
	// Blackhole: dropped by a discard route, an ACL, or a missing route.
	Blackhole
	// Loop: still circulating after MaxHops (TTL exceeded).
	Loop
)

// String names the final state.
func (s FinalState) String() string {
	switch s {
	case Arrive:
		return "arrive"
	case Exit:
		return "exit"
	case Blackhole:
		return "blackhole"
	case Loop:
		return "loop"
	}
	return "unknown"
}

// Query is the paper's 4-tuple (H, Vs, Vd, Vt) plus a TTL (§4.4). Empty
// Sources means "all nodes that originate traffic" (driver-defined); empty
// Dests means any local delivery counts as Arrive.
type Query struct {
	Header   *HeaderSpace
	Sources  []string
	Dests    []string
	Transits []string
	// MaxHops is the TTL for loop detection (default 32).
	MaxHops int
}

// EffectiveMaxHops applies the default TTL.
func (q *Query) EffectiveMaxHops() int {
	if q.MaxHops <= 0 {
		return 32
	}
	return q.MaxHops
}

// MetaBitFor returns the metadata bit index assigned to transit node name,
// or -1. Bits are assigned in Transits order.
func (q *Query) MetaBitFor(name string) int {
	for i, t := range q.Transits {
		if t == name {
			return i
		}
	}
	return -1
}

// queryTagSep separates a multi-query pass tag from the real source name.
// The unit separator cannot appear in device hostnames, so tagged sources
// ("q3\x1fedge-0-0") never collide with untagged ones and survive every
// delivery path (wire codec, per-packet, outcome harvest) untouched.
const queryTagSep = "\x1f"

// QueryTag returns the source prefix that marks packets of query i within
// a multi-query pass. Query packets with different tags occupy different
// wavefront slots, so they propagate independently through one shared pass.
func QueryTag(i int) string {
	return "q" + strconv.Itoa(i) + queryTagSep
}

// SplitQueryTag splits a possibly tagged source into its query index and
// the real source name. Untagged sources report ok=false.
func SplitQueryTag(source string) (idx int, rest string, ok bool) {
	sep := strings.Index(source, queryTagSep)
	if sep < 2 || source[0] != 'q' {
		return 0, source, false
	}
	n, err := strconv.Atoi(source[1:sep])
	if err != nil || n < 0 {
		return 0, source, false
	}
	return n, source[sep+len(queryTagSep):], true
}

// BatchCompatible reports whether two queries can share one symbolic pass.
// The pass-wide state a batch shares is exactly the transit metadata-bit
// assignment (BeginQueryBatch stamps MetaBitFor onto every node) and the hop
// loop's TTL; header spaces, sources, and dests stay per-query via tagged
// injection.
func BatchCompatible(a, b *Query) bool {
	if a.EffectiveMaxHops() != b.EffectiveMaxHops() {
		return false
	}
	if len(a.Transits) != len(b.Transits) {
		return false
	}
	for i := range a.Transits {
		if a.Transits[i] != b.Transits[i] {
			return false
		}
	}
	return true
}

// fpHasher is a small FNV-64a wrapper with length-prefixed fields, so
// adjacent variable-length fields cannot alias (the internal/config
// fingerprint idiom).
type fpHasher struct {
	h interface{ Write([]byte) (int, error) }
}

func (f fpHasher) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	f.h.Write(b[:])
}

func (f fpHasher) str(s string) {
	f.u32(uint32(len(s)))
	f.h.Write([]byte(s))
}

func (f fpHasher) strs(ss []string) {
	f.u32(uint32(len(ss)))
	for _, s := range ss {
		f.str(s)
	}
}

func (f fpHasher) prefix(p route.Prefix) {
	f.u32(p.Addr)
	f.u32(uint32(p.Len))
}

// Fingerprint computes the canonical identity of a query for caching:
// every field that affects the answer is hashed with length prefixes, in a
// fixed order. constrainSrc is part of the identity because it changes the
// injected predicates. Deterministic across processes (FNV-64a, no map
// iteration).
func (q *Query) Fingerprint(constrainSrc bool) uint64 {
	h := fnv.New64a()
	f := fpHasher{h: h}
	if q.Header != nil {
		f.u32(uint32(q.Header.Proto))
		f.u32(uint32(q.Header.DstPortLo))
		f.u32(uint32(q.Header.DstPortHi))
		if q.Header.SrcPrefix != nil {
			f.u32(1)
			f.prefix(*q.Header.SrcPrefix)
		} else {
			f.u32(0)
		}
		if q.Header.DstPrefix != nil {
			f.u32(1)
			f.prefix(*q.Header.DstPrefix)
		} else {
			f.u32(0)
		}
		f.u32(uint32(len(q.Header.DstIn)))
		for _, p := range q.Header.DstIn {
			f.prefix(p)
		}
	} else {
		f.u32(0)
	}
	f.strs(q.Sources)
	f.strs(q.Dests)
	f.strs(q.Transits)
	f.u32(uint32(q.EffectiveMaxHops()))
	if constrainSrc {
		f.u32(1)
	} else {
		f.u32(0)
	}
	return h.Sum64()
}

// Validate checks the query against a layout.
func (q *Query) Validate(l Layout) error {
	if len(q.Transits) > l.MetaBits {
		return fmt.Errorf("dataplane: query needs %d metadata bits, layout has %d",
			len(q.Transits), l.MetaBits)
	}
	return nil
}

// Outcome is one finalized symbolic packet, local to some engine.
type Outcome struct {
	Source string
	Node   string // node where the final state was reached
	State  FinalState
	Packet bdd.Ref
}

// RawOutcome is the engine-independent wire form of an Outcome's
// coordinates; the packets travel beside it as one set-encoded substrate
// (see DecodeOutcomes). Workers ship RawOutcomes to the controller.
type RawOutcome struct {
	Source string
	Node   string
	State  FinalState
}

// Violation describes one property violation found by a check.
type Violation struct {
	// Kind is "loop", "blackhole", "multipath-consistency", "waypoint",
	// or "unreachable".
	Kind   string
	Source string
	Node   string
	Detail string
	// ExampleDst is a concrete destination IP drawn from the violating
	// packet set, for operator-actionable reports.
	ExampleDst uint32
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: source=%s node=%s dst=%s %s",
		v.Kind, v.Source, v.Node, route.FormatAddr(v.ExampleDst), v.Detail)
}

// Collector aggregates outcomes on one engine (the controller's, in the
// distributed case) and evaluates the five §4.4 property types.
type Collector struct {
	e     *bdd.Engine
	query *Query
	// arrived[dest] is P_{v_d}: packets that reached dest with Arrive.
	arrived map[string]bdd.Ref
	// perSourceState[source][state] accumulates per-source final sets for
	// multipath-consistency checking.
	perSourceState map[string]map[FinalState]bdd.Ref
	// perState aggregates across sources.
	perState map[FinalState]bdd.Ref
	count    int
}

// NewCollector builds a collector for query on engine e.
func NewCollector(e *bdd.Engine, query *Query) *Collector {
	return &Collector{
		e:              e,
		query:          query,
		arrived:        map[string]bdd.Ref{},
		perSourceState: map[string]map[FinalState]bdd.Ref{},
		perState: map[FinalState]bdd.Ref{
			Arrive: bdd.False, Exit: bdd.False, Blackhole: bdd.False, Loop: bdd.False,
		},
	}
}

// Count returns the number of outcomes absorbed.
func (c *Collector) Count() int { return c.count }

// Engine returns the engine the collector's packet sets live in.
func (c *Collector) Engine() *bdd.Engine { return c.e }

// Add absorbs one engine-local outcome.
func (c *Collector) Add(o Outcome) error {
	if o.Packet == bdd.False {
		return nil
	}
	c.count++
	var err error
	c.perState[o.State], err = c.e.Or(c.perState[o.State], o.Packet)
	if err != nil {
		return err
	}
	ss := c.perSourceState[o.Source]
	if ss == nil {
		ss = map[FinalState]bdd.Ref{Arrive: bdd.False, Exit: bdd.False, Blackhole: bdd.False, Loop: bdd.False}
		c.perSourceState[o.Source] = ss
	}
	ss[o.State], err = c.e.Or(ss[o.State], o.Packet)
	if err != nil {
		return err
	}
	if o.State == Arrive {
		prev, ok := c.arrived[o.Node]
		if !ok {
			prev = bdd.False
		}
		c.arrived[o.Node], err = c.e.Or(prev, o.Packet)
		if err != nil {
			return err
		}
	}
	return nil
}

// DecodeOutcomes materializes a set-encoded outcome harvest into engine e:
// wire is a bdd.SerializeSet substrate whose root i is the packet of
// metas[i].
func DecodeOutcomes(e *bdd.Engine, wire []byte, metas []RawOutcome) ([]Outcome, error) {
	roots, err := e.DeserializeSet(wire)
	if err != nil {
		return nil, fmt.Errorf("dataplane: outcome batch: %w", err)
	}
	if len(roots) != len(metas) {
		return nil, fmt.Errorf("dataplane: outcome batch has %d roots for %d outcomes", len(roots), len(metas))
	}
	out := make([]Outcome, len(metas))
	for i, m := range metas {
		out[i] = Outcome{Source: m.Source, Node: m.Node, State: m.State, Packet: roots[i]}
	}
	return out, nil
}

// Arrived returns P_{v_d} for a destination node (bdd.False when nothing
// arrived).
func (c *Collector) Arrived(dest string) bdd.Ref {
	if r, ok := c.arrived[dest]; ok {
		return r
	}
	return bdd.False
}

// StateSet returns the aggregate packet set for a final state.
func (c *Collector) StateSet(s FinalState) bdd.Ref { return c.perState[s] }

// Report runs all property checks and returns the violations.
// The checks follow §4.4:
//
//   - loop-free / blackhole-free: any non-empty Loop/Blackhole set;
//   - reachability: every node in Dests must receive a non-empty Arrive
//     set (skipped when Dests is empty);
//   - waypoint: every packet arriving at a Dest must carry every transit
//     node's metadata bit;
//   - multipath consistency: per source, overlapping packets with
//     different final states.
func (c *Collector) Report() ([]Violation, error) {
	var out []Violation

	example := func(r bdd.Ref) uint32 {
		asg, ok := c.e.AnySat(r)
		if !ok {
			return 0
		}
		return dstIPOf(asg)
	}

	if r := c.perState[Loop]; r != bdd.False {
		out = append(out, Violation{Kind: "loop", Detail: "packets exceed TTL", ExampleDst: example(r)})
	}
	if r := c.perState[Blackhole]; r != bdd.False {
		out = append(out, Violation{Kind: "blackhole", Detail: "packets dropped", ExampleDst: example(r)})
	}

	// Reachability.
	for _, d := range c.query.Dests {
		if c.Arrived(d) == bdd.False {
			out = append(out, Violation{Kind: "unreachable", Node: d,
				Detail: "no packet from any source arrives"})
		}
	}

	// Waypoints.
	for _, transit := range c.query.Transits {
		bit := OffMeta + c.query.MetaBitFor(transit)
		want, err := c.e.Var(bit)
		if err != nil {
			return nil, err
		}
		for _, d := range c.destsOrArrivedNodes() {
			arrived := c.Arrived(d)
			if arrived == bdd.False {
				continue
			}
			missed, err := c.e.Diff(arrived, want)
			if err != nil {
				return nil, err
			}
			if missed != bdd.False {
				out = append(out, Violation{Kind: "waypoint", Node: d,
					Detail:     fmt.Sprintf("packets bypass transit %s", transit),
					ExampleDst: example(missed)})
			}
		}
	}

	// Multipath consistency (§4.4): per source, packets that overlap but
	// reached different final states.
	sources := make([]string, 0, len(c.perSourceState))
	for s := range c.perSourceState {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	states := []FinalState{Arrive, Exit, Blackhole, Loop}
	for _, src := range sources {
		ss := c.perSourceState[src]
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				overlap, err := c.e.And(ss[states[i]], ss[states[j]])
				if err != nil {
					return nil, err
				}
				if overlap != bdd.False {
					out = append(out, Violation{
						Kind: "multipath-consistency", Source: src,
						Detail: fmt.Sprintf("same packets end in %s and %s",
							states[i], states[j]),
						ExampleDst: example(overlap),
					})
				}
			}
		}
	}
	return out, nil
}

// RootRefs returns every BDD ref the collector holds, for use as GC roots.
func (c *Collector) RootRefs() []bdd.Ref {
	var out []bdd.Ref
	for _, r := range c.arrived {
		out = append(out, r)
	}
	for _, r := range c.perState {
		out = append(out, r)
	}
	for _, ss := range c.perSourceState {
		for _, r := range ss {
			out = append(out, r)
		}
	}
	return out
}

// Remap rewrites the collector's refs after an engine GC.
func (c *Collector) Remap(f func(bdd.Ref) bdd.Ref) {
	for k, r := range c.arrived {
		c.arrived[k] = f(r)
	}
	for k, r := range c.perState {
		c.perState[k] = f(r)
	}
	for _, ss := range c.perSourceState {
		for k, r := range ss {
			ss[k] = f(r)
		}
	}
}

func (c *Collector) destsOrArrivedNodes() []string {
	if len(c.query.Dests) > 0 {
		return c.query.Dests
	}
	var out []string
	for d := range c.arrived {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

package route

import "sort"

// RIB is a multipath routing information base: for each prefix it holds the
// set of equally-best installed routes (ECMP). The RIB itself is
// protocol-agnostic; protocol decision processes (BGP best path, OSPF SPF)
// decide what gets installed.
//
// A RIB is not safe for concurrent mutation; in S2 each node's RIBs are only
// touched by the worker goroutine executing that node's round.
type RIB struct {
	entries map[Prefix][]*Route
	// bytes is the modelled memory footprint of all held routes.
	bytes int64
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	return &RIB{entries: make(map[Prefix][]*Route)}
}

// ModelBytes returns the modelled memory footprint of the RIB contents.
func (r *RIB) ModelBytes() int64 { return r.bytes }

// Len returns the number of prefixes with at least one route.
func (r *RIB) Len() int { return len(r.entries) }

// RouteCount returns the total number of installed routes across prefixes
// (each ECMP path counts once).
func (r *RIB) RouteCount() int {
	n := 0
	for _, rs := range r.entries {
		n += len(rs)
	}
	return n
}

// Get returns the installed routes for a prefix. The returned slice is owned
// by the RIB and must not be modified.
func (r *RIB) Get(p Prefix) []*Route { return r.entries[p] }

// Prefixes returns all prefixes in sorted order.
func (r *RIB) Prefixes() []Prefix {
	ps := make([]Prefix, 0, len(r.entries))
	for p := range r.entries {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
	return ps
}

// SetRoutes replaces the route set for a prefix and reports whether anything
// changed. Passing an empty set removes the prefix. The routes are stored in
// deterministic (sorted) order so RIB dumps are canonical.
func (r *RIB) SetRoutes(p Prefix, routes []*Route) bool {
	old := r.entries[p]
	if len(routes) == 0 {
		if len(old) == 0 {
			return false
		}
		for _, o := range old {
			r.bytes -= o.ModelBytes()
		}
		delete(r.entries, p)
		return true
	}
	rs := append([]*Route(nil), routes...)
	SortRoutes(rs)
	if routeSetsEqual(old, rs) {
		return false
	}
	for _, o := range old {
		r.bytes -= o.ModelBytes()
	}
	for _, n := range rs {
		r.bytes += n.ModelBytes()
	}
	r.entries[p] = rs
	return true
}

// Remove deletes the route set for a prefix, reporting whether it existed.
func (r *RIB) Remove(p Prefix) bool { return r.SetRoutes(p, nil) }

// All returns every installed route in deterministic order.
func (r *RIB) All() []*Route {
	out := make([]*Route, 0, r.RouteCount())
	for _, p := range r.Prefixes() {
		out = append(out, r.entries[p]...)
	}
	return out
}

// Range calls fn for each prefix with its installed routes, in unspecified
// order; callers that need a deterministic one iterate Prefixes and Get.
func (r *RIB) Range(fn func(Prefix, []*Route)) {
	for p, rs := range r.entries {
		fn(p, rs)
	}
}

// Clear removes all entries.
func (r *RIB) Clear() {
	if len(r.entries) == 0 {
		return
	}
	r.entries = make(map[Prefix][]*Route)
	r.bytes = 0
}

func routeSetsEqual(a, b []*Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two RIBs hold exactly the same route sets. Used by
// the equivalence tests between S2 and the monolithic baseline (§5.3: "they
// output the same set of RIBs").
func (r *RIB) Equal(o *RIB) bool {
	if len(r.entries) != len(o.entries) {
		return false
	}
	for p, rs := range r.entries {
		if !routeSetsEqual(rs, o.entries[p]) {
			return false
		}
	}
	return true
}

// Diff returns prefixes whose route sets differ between r and o, sorted.
// Used for debugging equivalence failures.
func (r *RIB) Diff(o *RIB) []Prefix {
	seen := map[Prefix]bool{}
	var out []Prefix
	for p, rs := range r.entries {
		if !routeSetsEqual(rs, o.entries[p]) {
			out = append(out, p)
		}
		seen[p] = true
	}
	for p := range o.entries {
		if !seen[p] {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

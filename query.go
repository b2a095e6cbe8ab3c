package s2

import (
	"fmt"

	"s2/internal/dataplane"
	"s2/internal/route"
)

// Query is the paper's 4-tuple (H, Vs, Vd, Vt) at the public surface
// (§4.4): a header space, source nodes, destination nodes, and transit
// (waypoint) nodes.
type Query struct {
	// DstPrefix restricts the destination addresses ("a.b.c.d/len");
	// empty means any destination.
	DstPrefix string `json:"dst_prefix"`
	// SrcPrefix restricts source addresses; empty means any.
	SrcPrefix string `json:"src_prefix"`
	// Protocol restricts the IP protocol (0 = any; 6 = TCP, 17 = UDP).
	Protocol uint8 `json:"protocol"`
	// DstPort restricts the destination port (0 = any).
	DstPort uint16 `json:"dst_port"`

	// Sources inject the packet; empty means every prefix-owning node.
	Sources []string `json:"sources"`
	// Dests are the nodes where arrival counts (empty: any delivery).
	Dests []string `json:"dests"`
	// Transits are waypoint nodes every delivered packet must traverse.
	// Requires Options.WaypointBits >= len(Transits).
	Transits []string `json:"transits"`
	// MaxHops is the loop-detection TTL (default 32).
	MaxHops int `json:"max_hops"`
}

func (q *Query) compile() (*dataplane.Query, error) {
	h := &dataplane.HeaderSpace{Proto: q.Protocol}
	if q.DstPrefix != "" {
		p, err := route.ParsePrefix(q.DstPrefix)
		if err != nil {
			return nil, fmt.Errorf("s2: bad DstPrefix: %w", err)
		}
		h.DstPrefix = &p
	}
	if q.SrcPrefix != "" {
		p, err := route.ParsePrefix(q.SrcPrefix)
		if err != nil {
			return nil, fmt.Errorf("s2: bad SrcPrefix: %w", err)
		}
		h.SrcPrefix = &p
	}
	if q.DstPort != 0 {
		h.DstPortLo, h.DstPortHi = q.DstPort, q.DstPort
	}
	return &dataplane.Query{
		Header:   h,
		Sources:  q.Sources,
		Dests:    q.Dests,
		Transits: q.Transits,
		MaxHops:  q.MaxHops,
	}, nil
}

// Report is the outcome of one Check call.
type Report struct {
	// ReachedDests lists destination nodes that received packets.
	ReachedDests []string
	// Violations found by the §4.4 checks: reachability, waypoint,
	// multipath consistency, loop- and blackhole-freedom.
	Violations []Violation
	// Epoch is the verified-state epoch the answer was computed against.
	Epoch uint64
}

// OK reports whether the query found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Check runs a property query across the workers and evaluates all five
// §4.4 property types against the outcome. Answers go through the
// concurrent query plane: repeated queries against the same verified epoch
// are served from the outcome cache, and concurrent Check calls coalesce
// into shared symbolic passes — both byte-identical to a cold solo run.
func (v *Verifier) Check(q Query) (*Report, error) {
	if err := v.ensureDP(); err != nil {
		return nil, err
	}
	dq, err := q.compile()
	if err != nil {
		return nil, err
	}
	v.qmu.RLock()
	defer v.qmu.RUnlock()
	col, epoch, err := v.ctrl.SubmitQuery(dq, false)
	if err != nil {
		return nil, err
	}
	return v.buildReport(col, epoch)
}

// CheckBatch answers a set of queries in one submission: batch-compatible
// queries (same transit list and hop budget) share single symbolic passes
// instead of running one pass each, and duplicates collapse to one
// execution. Reports come back positionally.
func (v *Verifier) CheckBatch(qs []Query) ([]*Report, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if err := v.ensureDP(); err != nil {
		return nil, err
	}
	dqs := make([]*dataplane.Query, len(qs))
	for i := range qs {
		dq, err := qs[i].compile()
		if err != nil {
			return nil, fmt.Errorf("s2: query %d: %w", i, err)
		}
		dqs[i] = dq
	}
	v.qmu.RLock()
	defer v.qmu.RUnlock()
	cols, epochs, err := v.ctrl.SubmitQueryBatch(dqs, false)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, len(qs))
	for i, col := range cols {
		if reports[i], err = v.buildReport(col, epochs[i]); err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// buildReport evaluates a collector into the public report form.
func (v *Verifier) buildReport(col *dataplane.Collector, epoch uint64) (*Report, error) {
	vios, err := col.Report()
	if err != nil {
		return nil, err
	}
	rep := &Report{Violations: fromDP(vios), Epoch: epoch}
	for _, d := range v.net.Devices() {
		if col.Arrived(d) != 0 {
			rep.ReachedDests = append(rep.ReachedDests, d)
		}
	}
	return rep, nil
}

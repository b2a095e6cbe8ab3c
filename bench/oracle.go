package main

import (
	"fmt"
	"sort"
	"strings"

	"s2"
	"s2/internal/baseline"
	"s2/internal/config"
	"s2/internal/dataplane"
	"s2/internal/route"
)

// Answers are checked against references the distributed verifier had no
// part in: the planted faults give the FatTree answers in closed form, and
// the monolithic baseline (one process, one BDD table) answers sampled
// queries on the same texts. All of it runs outside timed regions.

// answerKey canonicalises one query answer for comparison: verdict, reached
// destinations, and the (kind, source, node) of every violation.
func answerKey(ok bool, reached []string, vios []s2.Violation) string {
	vs := make([]string, len(vios))
	for i, v := range vios {
		vs[i] = v.Kind + "@" + v.Source + "@" + v.Node
	}
	sort.Strings(vs)
	r := append([]string(nil), reached...)
	sort.Strings(r)
	return fmt.Sprintf("%t|%s|%s", ok, strings.Join(r, ","), strings.Join(vs, ","))
}

func reportKey(r *s2.Report) string { return answerKey(r.OK(), r.ReachedDests, r.Violations) }

// expect is the closed-form answer to a FatTree query: traffic reaches the
// destination edge unless its origination is withdrawn (planted or by a
// delta, in dyn) or its host port blocks it; then it is dropped on the way
// and the destination sees nothing.
func (ft *fatTree) expect(q query, dyn map[string]bool) string {
	if ft.withdrawn[q.Dst] || ft.blocked[q.Dst] || dyn[q.Dst] {
		return answerKey(false, nil, []s2.Violation{{Kind: "blackhole"}, {Kind: "unreachable", Node: q.Dst}})
	}
	return answerKey(true, []string{q.Dst}, nil)
}

// checkAllPairs compares an all-pairs verdict with what the planted faults
// imply: withdrawn edges are no longer prefix owners, blocked edges are
// exactly the unreached ones, each with an unreachable finding next to the
// one blackhole finding.
func (ft *fatTree) checkAllPairs(r *s2.ReachabilityReport) error {
	owners := len(ft.edges) - len(ft.withdrawn)
	if r.Sources != owners || r.Dests != owners {
		return fmt.Errorf("all-pairs: %d sources × %d dests, want %d × %d", r.Sources, r.Dests, owners, owners)
	}
	var blocked []string
	want := []s2.Violation{}
	for _, e := range ft.edges {
		if ft.blocked[e] {
			blocked = append(blocked, e)
			want = append(want, s2.Violation{Kind: "unreachable", Node: e})
		}
	}
	if len(blocked) > 0 {
		want = append(want, s2.Violation{Kind: "blackhole"})
	}
	got := answerKey(r.OK(), r.Unreached, r.Violations)
	if exp := answerKey(len(blocked) == 0, blocked, want); got != exp {
		return fmt.Errorf("all-pairs: got %s, want %s", got, exp)
	}
	return nil
}

// batfish is the monolithic reference converged on one set of texts.
type batfish struct {
	bf      *baseline.Batfish
	devices []string
}

// asFiles keys config texts by file name, as config.ParseTexts reads them.
func asFiles(texts map[string]string) map[string]string {
	files := make(map[string]string, len(texts))
	for name, text := range texts {
		files[name+".cfg"] = text
	}
	return files
}

func newBatfish(texts map[string]string) (*batfish, error) {
	snap, err := config.ParseTexts(asFiles(texts))
	if err != nil {
		return nil, fmt.Errorf("oracle: parse: %w", err)
	}
	bf, err := baseline.NewBatfish(snap, baseline.BatfishOptions{})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := bf.RunControlPlane(); err != nil {
		return nil, fmt.Errorf("oracle: control plane: %w", err)
	}
	if _, err := bf.ComputeDataPlane(); err != nil {
		return nil, fmt.Errorf("oracle: data plane: %w", err)
	}
	return &batfish{bf: bf, devices: snap.DeviceNames()}, nil
}

// answer runs one query on the reference and returns its answerKey.
func (b *batfish) answer(q query) (string, error) {
	p, err := route.ParsePrefix(q.DstPrefix)
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	h := &dataplane.HeaderSpace{DstPrefix: &p}
	if q.Port != 0 {
		h.Proto, h.DstPortLo, h.DstPortHi = 6, q.Port, q.Port
	}
	col, err := b.bf.RunQuery(&dataplane.Query{Header: h, Sources: []string{q.Src}, Dests: []string{q.Dst}}, false)
	if err != nil {
		return "", fmt.Errorf("oracle: query: %w", err)
	}
	dv, err := col.Report()
	if err != nil {
		return "", fmt.Errorf("oracle: report: %w", err)
	}
	vios := make([]s2.Violation, len(dv))
	for i, v := range dv {
		vios[i] = s2.Violation{Kind: v.Kind, Source: v.Source, Node: v.Node}
	}
	var reached []string
	for _, d := range b.devices {
		if col.Arrived(d) != 0 {
			reached = append(reached, d)
		}
	}
	return answerKey(len(vios) == 0, reached, vios), nil
}

// mismatches counts the queries whose got answer differs from the
// reference's.
func (b *batfish) mismatches(qs []query, got []string) (int, error) {
	bad := 0
	for i, q := range qs {
		want, err := b.answer(q)
		if err != nil {
			return 0, err
		}
		if got[i] != want {
			bad++
		}
	}
	return bad, nil
}

package route

import "testing"

func ribRoute(pfx, nh string) *Route {
	return &Route{
		Prefix:      MustParsePrefix(pfx),
		Protocol:    BGP,
		NextHop:     MustParseAddr(nh),
		NextHopNode: "n-" + nh,
		ASPath:      []uint32{65000},
		LocalPref:   100,
	}
}

func TestRIBSetGetRemove(t *testing.T) {
	r := NewRIB()
	p := MustParsePrefix("10.0.0.0/24")
	if r.Len() != 0 || r.RouteCount() != 0 || r.ModelBytes() != 0 {
		t.Fatal("empty RIB should report zeros")
	}
	if !r.SetRoutes(p, []*Route{ribRoute("10.0.0.0/24", "1.1.1.1")}) {
		t.Fatal("first insert should report change")
	}
	if r.Len() != 1 || r.RouteCount() != 1 {
		t.Fatal("counts after insert")
	}
	if r.ModelBytes() <= 0 {
		t.Fatal("bytes should be charged")
	}
	// Idempotent set: no change.
	if r.SetRoutes(p, []*Route{ribRoute("10.0.0.0/24", "1.1.1.1")}) {
		t.Fatal("identical set should report no change")
	}
	if !r.Remove(p) || r.Len() != 0 || r.ModelBytes() != 0 {
		t.Fatal("remove should clear entry and bytes")
	}
	if r.Remove(p) {
		t.Fatal("double remove should report no change")
	}
}

func TestRIBMultipath(t *testing.T) {
	r := NewRIB()
	p := MustParsePrefix("10.0.0.0/24")
	paths := []*Route{
		ribRoute("10.0.0.0/24", "1.1.1.2"),
		ribRoute("10.0.0.0/24", "1.1.1.1"),
	}
	r.SetRoutes(p, paths)
	got := r.Get(p)
	if len(got) != 2 {
		t.Fatalf("want 2 ECMP paths, got %d", len(got))
	}
	// Stored in canonical order regardless of insertion order.
	r2 := NewRIB()
	r2.SetRoutes(p, []*Route{paths[1], paths[0]})
	if !r.Equal(r2) {
		t.Fatal("route set order must not affect RIB equality")
	}
}

func TestRIBEqualDiff(t *testing.T) {
	a, b := NewRIB(), NewRIB()
	p1 := MustParsePrefix("10.0.0.0/24")
	p2 := MustParsePrefix("10.0.1.0/24")
	a.SetRoutes(p1, []*Route{ribRoute("10.0.0.0/24", "1.1.1.1")})
	b.SetRoutes(p1, []*Route{ribRoute("10.0.0.0/24", "1.1.1.1")})
	if !a.Equal(b) || len(a.Diff(b)) != 0 {
		t.Fatal("identical RIBs must be equal")
	}
	b.SetRoutes(p2, []*Route{ribRoute("10.0.1.0/24", "1.1.1.1")})
	if a.Equal(b) {
		t.Fatal("extra prefix must break equality")
	}
	if d := a.Diff(b); len(d) != 1 || d[0] != p2 {
		t.Fatalf("Diff = %v, want [%v]", d, p2)
	}
	a.SetRoutes(p2, []*Route{ribRoute("10.0.1.0/24", "2.2.2.2")})
	if d := a.Diff(b); len(d) != 1 || d[0] != p2 {
		t.Fatalf("Diff with differing attrs = %v", d)
	}
}

func TestRIBPrefixesSortedRangeAndClear(t *testing.T) {
	r := NewRIB()
	for _, s := range []string{"10.0.2.0/24", "10.0.0.0/24", "10.0.1.0/24"} {
		r.SetRoutes(MustParsePrefix(s), []*Route{ribRoute(s, "1.1.1.1")})
	}
	seen := r.Prefixes()
	for i := 1; i < len(seen); i++ {
		if seen[i-1].Compare(seen[i]) >= 0 {
			t.Fatal("Prefixes must come in sorted order")
		}
	}
	ranged := map[Prefix]int{}
	r.Range(func(p Prefix, rs []*Route) { ranged[p] += len(rs) })
	if len(ranged) != 3 || ranged[seen[0]] != 1 {
		t.Fatalf("Range visited %v, want each of the 3 prefixes once", ranged)
	}
	if len(r.All()) != 3 {
		t.Fatal("All should return all routes")
	}
	r.Clear()
	if r.Len() != 0 || r.ModelBytes() != 0 {
		t.Fatal("Clear should empty the RIB")
	}
}

package core

import (
	"fmt"
	"testing"

	"s2/internal/route"
)

// benchRIB builds a synthetic converged LocRIB: prefixes from a /16 pool,
// routesPer ECMP routes each, with the heavyweight attributes a real BGP
// route carries into the harvest.
func benchRIB(prefixes, routesPer int) *route.RIB {
	rib := route.NewRIB()
	for i := 0; i < prefixes; i++ {
		p := route.MakePrefix(uint32(10<<24|i<<8), 24)
		rs := make([]*route.Route, routesPer)
		for j := 0; j < routesPer; j++ {
			rs[j] = &route.Route{
				Prefix:      p,
				Protocol:    route.BGP,
				NextHop:     uint32(j + 1),
				NextHopNode: fmt.Sprintf("peer-%d", j),
				ASPath:      []uint32{65000, 65001, uint32(65100 + j)},
				Communities: []route.Community{0xFDE80001, 0xFDE80002},
			}
		}
		rib.SetRoutes(p, rs)
	}
	return rib
}

// BenchmarkEndShardHarvest times harvestFIB, EndShard's per-node loop,
// landing one cold shard round (1 000 prefixes × 4 ECMP routes) in an empty
// FIB. Run with -benchmem: allocs/op is the point. The stripped copies
// share two arrays per call, but every prefix still pays its own
// RIB.SetRoutes copy and sort and its dirty mark.
func BenchmarkEndShardHarvest(b *testing.B) {
	const prefixes, routesPer = 1000, 4
	rib := benchRIB(prefixes, routesPer)
	shard := make([]route.Prefix, 0, prefixes)
	rib.Range(func(p route.Prefix, _ []*route.Route) { shard = append(shard, p) })
	w := &Worker{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.fibRIBs = map[string]*route.RIB{"n": route.NewRIB()}
		w.dpDirty = map[string]*dirtyNode{}
		b.StartTimer()
		w.harvestFIB("n", rib, shard)
	}
}

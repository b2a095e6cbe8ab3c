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

// liteRoute strips heavyweight path attributes, keeping only what FIB
// construction needs — one fresh Route per call, as the naive harvest did.
func liteRoute(r *route.Route) *route.Route {
	return &route.Route{
		Prefix:      r.Prefix,
		Protocol:    r.Protocol,
		NextHop:     r.NextHop,
		NextHopNode: r.NextHopNode,
	}
}

// BenchmarkEndShardHarvest compares the two harvest strategies for one
// shard's routes (the per-shard hot loop of EndShard):
//
//   - naive: what EndShard used to do — a fresh []*route.Route per prefix
//     and a fresh stripped Route per entry (liteRoute), so every shard
//     round costs prefixes + prefixes×routes allocations per node;
//   - prealloc: the current code — one RouteCount-sized backing array of
//     stripped copies plus one pointer array per node, subsliced per
//     prefix, so every shard round costs two allocations per node.
//
// Run with -benchmem: allocs/op is the point of the comparison.
func BenchmarkEndShardHarvest(b *testing.B) {
	const prefixes, routesPer = 1000, 4
	rib := benchRIB(prefixes, routesPer)
	// The installed per-prefix slices go here in both variants, standing in
	// for fibRIBs.SetRoutes (whose cost is identical on both sides).
	out := make([][]*route.Route, prefixes)

	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := 0
			rib.Range(func(p route.Prefix, rs []*route.Route) {
				lites := make([]*route.Route, 0, len(rs))
				for _, r := range rs {
					lites = append(lites, liteRoute(r))
				}
				out[k], k = lites, k+1
			})
		}
	})

	b.Run("prealloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			total := rib.RouteCount()
			backing := make([]route.Route, total)
			ptrs := make([]*route.Route, total)
			off, k := 0, 0
			rib.Range(func(p route.Prefix, rs []*route.Route) {
				lites := ptrs[off : off+len(rs) : off+len(rs)]
				for j, r := range rs {
					backing[off+j] = route.Route{Prefix: r.Prefix, Protocol: r.Protocol, NextHop: r.NextHop, NextHopNode: r.NextHopNode}
					lites[j] = &backing[off+j]
				}
				off += len(rs)
				out[k], k = lites, k+1
			})
		}
	})
}

package route

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Protocol identifies the origin protocol of a route. Administrative
// distances follow common vendor defaults.
type Protocol uint8

const (
	Connected Protocol = iota
	Static
	OSPF
	BGP       // learned over eBGP
	IBGP      // learned over iBGP
	Aggregate // locally generated BGP aggregate
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case Connected:
		return "connected"
	case Static:
		return "static"
	case OSPF:
		return "ospf"
	case BGP:
		return "bgp"
	case IBGP:
		return "ibgp"
	case Aggregate:
		return "aggregate"
	}
	return "unknown(" + strconv.Itoa(int(p)) + ")"
}

// AdminDistance returns the administrative distance used when routes of
// different protocols compete for the same prefix in the main RIB.
func (p Protocol) AdminDistance() uint8 {
	switch p {
	case Connected:
		return 0
	case Static:
		return 1
	case BGP:
		return 20
	case OSPF:
		return 110
	case IBGP:
		return 200
	case Aggregate:
		return 200
	}
	return 255
}

// Origin is the BGP ORIGIN attribute. Lower is preferred.
type Origin uint8

const (
	OriginIGP Origin = iota
	OriginEGP
	OriginIncomplete
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "igp"
	case OriginEGP:
		return "egp"
	}
	return "incomplete"
}

// Community is a standard BGP community encoded as asn<<16|value.
type Community uint32

// MakeCommunity builds a community from its two 16-bit halves.
func MakeCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ParseCommunity parses "asn:value".
func ParseCommunity(s string) (Community, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, fmt.Errorf("route: community %q missing colon", s)
	}
	hi, err := strconv.ParseUint(s[:colon], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("route: invalid community %q: %v", s, err)
	}
	lo, err := strconv.ParseUint(s[colon+1:], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("route: invalid community %q: %v", s, err)
	}
	return MakeCommunity(uint16(hi), uint16(lo)), nil
}

// String renders the community as "asn:value".
func (c Community) String() string {
	return strconv.FormatUint(uint64(c>>16), 10) + ":" + strconv.FormatUint(uint64(c&0xffff), 10)
}

// Route is a single RIB entry. It is treated as immutable once installed:
// policy application always copies before modifying, so routes can be shared
// across Adj-RIBs, serialized, and hashed without synchronization.
type Route struct {
	Prefix   Prefix
	Protocol Protocol

	// NextHop is the IP of the next-hop interface; 0 for locally
	// originated routes (connected, network statements, aggregates).
	NextHop uint32
	// NextHopNode names the neighbouring device this route was learned
	// from; empty for local routes. It is carried so FIB construction can
	// resolve egress ports without re-deriving adjacency from NextHop.
	NextHopNode string

	// Metric is the IGP cost for OSPF routes and the MED for BGP routes.
	Metric uint32

	// BGP path attributes; zero-valued for non-BGP routes.
	ASPath      []uint32
	LocalPref   uint32
	Origin      Origin
	Communities []Community
	// OriginatorID is the BGP router ID of the route's originator and the
	// final tiebreaker in the decision process.
	OriginatorID uint32
	// PeerAS is the AS of the neighbour the route was learned from (used
	// for MED comparability).
	PeerAS uint32
}

// Clone returns a deep copy whose attribute slices are safe to modify.
func (r *Route) Clone() *Route {
	c := *r
	if len(r.ASPath) > 0 {
		c.ASPath = append([]uint32(nil), r.ASPath...)
	}
	if len(r.Communities) > 0 {
		c.Communities = append([]Community(nil), r.Communities...)
	}
	return &c
}

// HasCommunity reports whether the route carries community c.
func (r *Route) HasCommunity(c Community) bool {
	for _, x := range r.Communities {
		if x == c {
			return true
		}
	}
	return false
}

// ASPathContains reports whether asn appears anywhere in the AS path. BGP
// speakers use this for loop detection on receipt.
func (r *Route) ASPathContains(asn uint32) bool {
	for _, a := range r.ASPath {
		if a == asn {
			return true
		}
	}
	return false
}

// ModelBytes is the modelled in-memory footprint of the route, charged to
// the owning worker's memory budget by the metrics package. The base cost
// approximates the paper prototype's immutable Java route objects (object
// headers, boxed attributes, per-entry map overhead — several hundred
// bytes each), plus per-element costs for variable-length attributes.
func (r *Route) ModelBytes() int64 {
	return 256 + int64(len(r.ASPath))*8 + int64(len(r.Communities))*8 + int64(len(r.NextHopNode))
}

// LiteModelBytes is the modelled footprint of an attribute-stripped route
// retained only for FIB construction (prefix + next hop), far cheaper than
// a full route — the saving prefix sharding banks between rounds.
const LiteModelBytes = 48

// String renders the route in a show-ip-route-like single line form.
func (r *Route) String() string {
	var b strings.Builder
	b.WriteString(r.Prefix.String())
	b.WriteString(" [")
	b.WriteString(r.Protocol.String())
	b.WriteString("] via ")
	if r.NextHopNode != "" {
		b.WriteString(r.NextHopNode)
		b.WriteByte('(')
		b.WriteString(FormatAddr(r.NextHop))
		b.WriteByte(')')
	} else {
		b.WriteString("local")
	}
	if r.Protocol == BGP || r.Protocol == IBGP || r.Protocol == Aggregate {
		b.WriteString(" as-path=")
		for i, a := range r.ASPath {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatUint(uint64(a), 10))
		}
		b.WriteString(" lp=")
		b.WriteString(strconv.FormatUint(uint64(r.LocalPref), 10))
		b.WriteString(" med=")
		b.WriteString(strconv.FormatUint(uint64(r.Metric), 10))
		if len(r.Communities) > 0 {
			b.WriteString(" comm=")
			for i, c := range r.Communities {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(c.String())
			}
		}
	}
	return b.String()
}

// Key is a canonical identity for a route used for change detection and for
// deduplication in Adj-RIBs: two routes with equal keys are interchangeable
// for the simulation. The encoding is binary, not human-readable: fixed-width
// big-endian scalars, length-prefixed attribute lists, and the next-hop node
// name as the tail, built in a single allocation. Keys sort prefix-major
// because the leading five bytes are Prefix.Addr and Prefix.Len in big-endian
// order, matching Prefix.Compare.
func (r *Route) Key() string {
	var b strings.Builder
	b.Grow(25 + 4*len(r.ASPath) + 2 + 4*len(r.Communities) + len(r.NextHopNode))
	put32 := func(v uint32) {
		b.WriteByte(byte(v >> 24))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v))
	}
	put32(r.Prefix.Addr)
	b.WriteByte(r.Prefix.Len)
	b.WriteByte(byte(r.Protocol))
	put32(r.NextHop)
	put32(r.Metric)
	put32(r.LocalPref)
	b.WriteByte(byte(r.Origin))
	put32(r.OriginatorID)
	b.WriteByte(byte(len(r.ASPath) >> 8))
	b.WriteByte(byte(len(r.ASPath)))
	for _, a := range r.ASPath {
		put32(a)
	}
	b.WriteByte(byte(len(r.Communities) >> 8))
	b.WriteByte(byte(len(r.Communities)))
	for _, c := range r.Communities {
		put32(uint32(c))
	}
	b.WriteString(r.NextHopNode)
	return b.String()
}

// Equal reports attribute-level equality.
func (r *Route) Equal(o *Route) bool {
	if r.Prefix != o.Prefix || r.Protocol != o.Protocol || r.NextHop != o.NextHop ||
		r.NextHopNode != o.NextHopNode || r.Metric != o.Metric ||
		r.LocalPref != o.LocalPref || r.Origin != o.Origin ||
		r.OriginatorID != o.OriginatorID || r.PeerAS != o.PeerAS ||
		len(r.ASPath) != len(o.ASPath) || len(r.Communities) != len(o.Communities) {
		return false
	}
	for i := range r.ASPath {
		if r.ASPath[i] != o.ASPath[i] {
			return false
		}
	}
	for i := range r.Communities {
		if r.Communities[i] != o.Communities[i] {
			return false
		}
	}
	return true
}

// SortRoutes orders routes deterministically (prefix, then key). Used to
// canonicalize RIB dumps for comparison between S2 and the baselines, and by
// the BGP decision process to fix its iteration order — which makes this a
// hot path, so the comparator walks the fields in place instead of building
// keys. Key order alone is prefix-major (see Key), so this is the
// documented (prefix, then key) order.
func SortRoutes(rs []*Route) {
	if len(rs) < 2 {
		return
	}
	sort.Sort(routeSorter(rs))
}

type routeSorter []*Route

func (s routeSorter) Len() int           { return len(s) }
func (s routeSorter) Less(i, j int) bool { return compareRoutes(s[i], s[j]) < 0 }
func (s routeSorter) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// compareRoutes orders a and b exactly as strings.Compare orders their
// Keys, without building them: the fields in Key's byte order, fixed-width
// ones numerically (big-endian bytes compare as numbers), each list after
// its 2-byte length, and NextHopNode last as the string tail. Like Key it
// ignores PeerAS, so routes differing only there compare equal.
func compareRoutes(a, b *Route) int {
	if c := cmp.Or(
		cmp.Compare(a.Prefix.Addr, b.Prefix.Addr),
		cmp.Compare(a.Prefix.Len, b.Prefix.Len),
		cmp.Compare(a.Protocol, b.Protocol),
		cmp.Compare(a.NextHop, b.NextHop),
		cmp.Compare(a.Metric, b.Metric),
		cmp.Compare(a.LocalPref, b.LocalPref),
		cmp.Compare(a.Origin, b.Origin),
		cmp.Compare(a.OriginatorID, b.OriginatorID),
		cmp.Compare(uint16(len(a.ASPath)), uint16(len(b.ASPath))),
	); c != 0 {
		return c
	}
	if c := slices.Compare(a.ASPath, b.ASPath); c != 0 {
		return c
	}
	if c := cmp.Compare(uint16(len(a.Communities)), uint16(len(b.Communities))); c != 0 {
		return c
	}
	if c := slices.Compare(a.Communities, b.Communities); c != 0 {
		return c
	}
	return strings.Compare(a.NextHopNode, b.NextHopNode)
}

// Package dataplane implements data plane verification: converting RIBs to
// FIBs, compiling per-port forwarding and ACL predicates into BDDs (§4.3),
// the per-node symbolic forwarding step of equation (1), and the five
// property-query types of §4.4. The distributed driver (internal/core) and
// the centralized baseline (internal/baseline) both build on this package;
// they differ only in who owns the BDD engine and how packets travel
// between nodes.
package dataplane

import (
	"s2/internal/bdd"
	"s2/internal/config"
	"s2/internal/route"
)

// Header bit layout: 104 bits of 5-tuple plus MetaBits of path metadata
// (§4.3, "a bit vector of length 104 + m").
const (
	OffSrcIP   = 0
	OffDstIP   = 32
	OffSrcPort = 64
	OffDstPort = 80
	OffProto   = 96
	OffMeta    = 104
)

// Layout fixes the variable count of all engines participating in one
// verification run. Every worker must use the same layout for serialized
// packets to re-encode correctly.
type Layout struct {
	// MetaBits is m, the number of waypoint-tracking bits.
	MetaBits int
}

// NumVars returns the BDD variable count.
func (l Layout) NumVars() int { return OffMeta + l.MetaBits }

// NewEngine builds a BDD engine sized for this layout.
func (l Layout) NewEngine(maxNodes int) *bdd.Engine {
	return bdd.New(l.NumVars(), maxNodes)
}

// PrefixMatch returns the BDD for "field at offset matches prefix".
func PrefixMatch(e *bdd.Engine, offset int, p route.Prefix) (bdd.Ref, error) {
	return e.PrefixCube(offset, 32, p.Addr, int(p.Len))
}

// PrefixSetMatch returns the BDD for "field at offset matches any of
// prefixes" (False for none).
func PrefixSetMatch(e *bdd.Engine, offset int, prefixes []route.Prefix) (bdd.Ref, error) {
	acc := bdd.False
	for _, p := range prefixes {
		m, err := PrefixMatch(e, offset, p)
		if err != nil {
			return bdd.False, err
		}
		if acc, err = e.Or(acc, m); err != nil {
			return bdd.False, err
		}
	}
	return acc, nil
}

// AddrMatch returns the BDD for an exact 32-bit address.
func AddrMatch(e *bdd.Engine, offset int, addr uint32) (bdd.Ref, error) {
	return e.PrefixCube(offset, 32, addr, 32)
}

// RangeMatch returns the BDD for "width-bit field in [lo, hi]" using the
// standard decomposition of an integer range into O(width) prefix cubes.
func RangeMatch(e *bdd.Engine, offset, width int, lo, hi uint32) (bdd.Ref, error) {
	if lo > hi {
		return bdd.False, nil
	}
	max := uint32(1)<<width - 1
	if hi > max {
		hi = max
	}
	if lo == 0 && hi == max {
		return bdd.True, nil
	}
	acc := bdd.False
	// Decompose [lo, hi] into maximal aligned blocks.
	for lo <= hi {
		// Largest block size starting at lo that stays within [lo, hi].
		size := uint32(1)
		for {
			next := size << 1
			if next == 0 || lo&(next-1) != 0 || lo+next-1 > hi {
				break
			}
			size = next
		}
		bits := 0
		for s := size; s > 1; s >>= 1 {
			bits++
		}
		cube, err := e.PrefixCube(offset, width, lo, width-bits)
		if err != nil {
			return bdd.False, err
		}
		acc, err = e.Or(acc, cube)
		if err != nil {
			return bdd.False, err
		}
		if lo+size-1 == ^uint32(0) {
			break
		}
		lo += size
	}
	return acc, nil
}

// ProtoMatch returns the BDD for an exact IP protocol number (0 = any).
func ProtoMatch(e *bdd.Engine, proto uint8) (bdd.Ref, error) {
	if proto == 0 {
		return bdd.True, nil
	}
	return e.PrefixCube(OffProto, 8, uint32(proto), 8)
}

// HeaderSpace is the user-facing H of a query (§4.4): optional constraints
// on the 5-tuple. Nil fields are unconstrained.
type HeaderSpace struct {
	SrcPrefix *route.Prefix
	DstPrefix *route.Prefix
	// DstIn, when non-empty, constrains the destination to the UNION of
	// these prefixes (used by all-pair checks to scope traffic to owned
	// destinations). Combines conjunctively with DstPrefix.
	DstIn     []route.Prefix
	Proto     uint8 // 0 = any
	DstPortLo uint16
	DstPortHi uint16 // 0,0 = any (normalized to 0,65535)
}

// Compile converts the header space into a symbolic packet.
func (h *HeaderSpace) Compile(e *bdd.Engine) (bdd.Ref, error) {
	acc := bdd.True
	var err error
	and := func(r bdd.Ref) {
		if err == nil {
			acc, err = e.And(acc, r)
		}
	}
	if h == nil {
		return acc, nil
	}
	if h.SrcPrefix != nil {
		r, e2 := PrefixMatch(e, OffSrcIP, *h.SrcPrefix)
		if e2 != nil {
			return bdd.False, e2
		}
		and(r)
	}
	if h.DstPrefix != nil {
		r, e2 := PrefixMatch(e, OffDstIP, *h.DstPrefix)
		if e2 != nil {
			return bdd.False, e2
		}
		and(r)
	}
	if len(h.DstIn) > 0 {
		union, e2 := PrefixSetMatch(e, OffDstIP, h.DstIn)
		if e2 != nil {
			return bdd.False, e2
		}
		and(union)
	}
	if h.Proto != 0 {
		r, e2 := ProtoMatch(e, h.Proto)
		if e2 != nil {
			return bdd.False, e2
		}
		and(r)
	}
	if !(h.DstPortLo == 0 && (h.DstPortHi == 0 || h.DstPortHi == 65535)) {
		hi := h.DstPortHi
		if hi == 0 {
			hi = h.DstPortLo
		}
		r, e2 := RangeMatch(e, OffDstPort, 16, uint32(h.DstPortLo), uint32(hi))
		if e2 != nil {
			return bdd.False, e2
		}
		and(r)
	}
	return acc, err
}

// ACLMatch compiles one ACL into a permit predicate with first-match
// semantics: a packet is permitted iff the first matching entry permits it;
// the implicit tail entry denies.
func ACLMatch(e *bdd.Engine, acl *config.ACL) (bdd.Ref, error) {
	permitted := bdd.False
	unmatched := bdd.True // packets not matched by any earlier entry
	for _, entry := range acl.Entries {
		m, err := aclEntryMatch(e, entry)
		if err != nil {
			return bdd.False, err
		}
		hit, err := e.And(unmatched, m)
		if err != nil {
			return bdd.False, err
		}
		if entry.Action == config.Permit {
			permitted, err = e.Or(permitted, hit)
			if err != nil {
				return bdd.False, err
			}
		}
		unmatched, err = e.Diff(unmatched, m)
		if err != nil {
			return bdd.False, err
		}
		if unmatched == bdd.False {
			break
		}
	}
	return permitted, nil
}

func aclEntryMatch(e *bdd.Engine, entry config.ACLEntry) (bdd.Ref, error) {
	if entry.MatchesAny() {
		return bdd.True, nil
	}
	src, err := PrefixMatch(e, OffSrcIP, entry.Src)
	if err != nil {
		return bdd.False, err
	}
	dst, err := PrefixMatch(e, OffDstIP, entry.Dst)
	if err != nil {
		return bdd.False, err
	}
	proto, err := ProtoMatch(e, entry.Proto)
	if err != nil {
		return bdd.False, err
	}
	sport, err := RangeMatch(e, OffSrcPort, 16, uint32(entry.SrcPortLo), uint32(entry.SrcPortHi))
	if err != nil {
		return bdd.False, err
	}
	dport, err := RangeMatch(e, OffDstPort, 16, uint32(entry.DstPortLo), uint32(entry.DstPortHi))
	if err != nil {
		return bdd.False, err
	}
	return e.AndAll(src, dst, proto, sport, dport)
}

// dstIPOf extracts a concrete destination IP from a satisfying assignment;
// testing helper shared with property checks.
func dstIPOf(asg map[int]bool) uint32 {
	var v uint32
	for i := 0; i < 32; i++ {
		if asg[OffDstIP+i] {
			v |= 1 << (31 - i)
		}
	}
	return v
}

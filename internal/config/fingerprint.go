package config

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sort"

	"s2/internal/route"
)

// Fingerprint is a stable hash of one device's parsed model, split into
// sections by how a change to the section affects resident verification
// state. Hashing the model rather than the raw text means comment and
// whitespace edits fingerprint identically and are no-ops for the delta
// planner.
//
//   - Topo covers everything that shapes the control-plane graph itself:
//     addressed interfaces, OSPF, BGP session endpoints. A change here
//     invalidates the topology and forces a full re-verification.
//   - Policy covers route filtering and rewriting: route-maps and the lists
//     they reference, per-neighbor policy attachments, ECMP limits,
//     redistribution, and static routes. A change can affect any prefix the
//     device touches in transit, so every shard re-simulates.
//   - Orig covers locally originated BGP prefixes (network and
//     aggregate-address statements). Only shards containing the affected
//     prefixes — expanded through the prefix dependency graph — re-simulate.
//   - DP covers data-plane-only state: ACL definitions and interface ACL
//     bindings, plus cosmetic fields (interface descriptions). No shard
//     re-simulates; the data plane recomputes from the resident RIBs.
type Fingerprint struct {
	Topo   uint64
	Policy uint64
	Orig   uint64
	DP     uint64
}

// Equal reports whether two fingerprints match in every section.
func (f Fingerprint) Equal(o Fingerprint) bool { return f == o }

// DeviceFingerprint computes the sectioned fingerprint of a parsed device.
// Iteration over every map is sorted, so the hash is deterministic across
// processes.
func DeviceFingerprint(d *Device) Fingerprint {
	return Fingerprint{
		Topo:   hashTopo(d),
		Policy: hashPolicy(d),
		Orig:   hashOrig(d),
		DP:     hashDP(d),
	}
}

// Fingerprints computes fingerprints for every device in the snapshot.
func Fingerprints(snap *Snapshot) map[string]Fingerprint {
	out := make(map[string]Fingerprint, len(snap.Devices))
	for name, dev := range snap.Devices {
		out[name] = DeviceFingerprint(dev)
	}
	return out
}

// hasher wraps FNV-64a with typed append helpers. Every variable-length
// field is length-prefixed so adjacent fields cannot alias.
type hasher struct{ h hash.Hash64 }

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) sum() uint64 { return h.h.Sum64() }

func (h *hasher) u8(v uint8) { h.h.Write([]byte{v}) }

func (h *hasher) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	h.h.Write(b[:])
}

func (h *hasher) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.h.Write(b[:])
}

func (h *hasher) boolean(v bool) {
	if v {
		h.u8(1)
	} else {
		h.u8(0)
	}
}

func (h *hasher) str(s string) {
	h.u32(uint32(len(s)))
	h.h.Write([]byte(s))
}

func (h *hasher) prefix(p route.Prefix) {
	h.u32(p.Addr)
	h.u8(p.Len)
}

func hashTopo(d *Device) uint64 {
	h := newHasher()
	h.str(d.Hostname)
	h.str(string(d.Vendor))
	names := d.InterfaceNames()
	h.u32(uint32(len(names)))
	for _, n := range names {
		ifc := d.Interfaces[n]
		h.str(ifc.Name)
		h.u32(ifc.IP)
		h.prefix(ifc.Subnet)
		h.u32(ifc.OSPFCost)
		h.boolean(ifc.Shutdown)
	}
	if d.OSPF == nil {
		h.boolean(false)
	} else {
		h.boolean(true)
		h.u32(d.OSPF.ProcessID)
		h.u32(d.OSPF.RouterID)
		h.u32(uint32(d.OSPF.MaxPaths))
		h.u32(uint32(len(d.OSPF.Networks)))
		for _, p := range d.OSPF.Networks {
			h.prefix(p)
		}
		passive := make([]string, 0, len(d.OSPF.Passive))
		for n, on := range d.OSPF.Passive {
			if on {
				passive = append(passive, n)
			}
		}
		sort.Strings(passive)
		h.u32(uint32(len(passive)))
		for _, n := range passive {
			h.str(n)
		}
	}
	if d.BGP == nil {
		h.boolean(false)
	} else {
		h.boolean(true)
		h.u32(d.BGP.ASN)
		h.u32(d.BGP.RouterID)
		ns := d.BGP.SortedNeighbors()
		h.u32(uint32(len(ns)))
		for _, n := range ns {
			h.u32(n.PeerIP)
			h.u32(n.RemoteAS)
		}
	}
	return h.sum()
}

func hashPolicy(d *Device) uint64 {
	h := newHasher()
	if d.BGP != nil {
		h.u32(uint32(d.BGP.MaxPaths))
		h.u32(uint32(len(d.BGP.Redistribute)))
		for _, rd := range d.BGP.Redistribute {
			h.str(rd.Source)
			h.str(rd.RouteMap)
		}
		ns := d.BGP.SortedNeighbors()
		h.u32(uint32(len(ns)))
		for _, n := range ns {
			h.u32(n.PeerIP)
			h.str(n.ImportPolicy)
			h.str(n.ExportPolicy)
			h.boolean(n.RemovePrivateAS)
			h.boolean(n.NextHopSelf)
			h.boolean(n.AllowASIn)
			h.str(n.AdvertiseMap)
			h.str(n.ConditionList)
			h.boolean(n.ConditionAbsence)
		}
	}
	h.u32(uint32(len(d.StaticRoutes)))
	for _, sr := range d.StaticRoutes {
		h.prefix(sr.Prefix)
		h.u32(sr.NextHop)
		h.boolean(sr.Drop)
	}
	hashSortedMap(h, d.PrefixLists, func(l *PrefixList) {
		h.str(l.Name)
		h.u32(uint32(len(l.Entries)))
		for _, e := range l.Entries {
			h.u32(uint32(e.Seq))
			h.u8(uint8(e.Action))
			h.prefix(e.Prefix)
			h.u8(e.Ge)
			h.u8(e.Le)
		}
	})
	hashSortedMap(h, d.CommunityLists, func(l *CommunityList) {
		h.str(l.Name)
		h.u32(uint32(len(l.Entries)))
		for _, e := range l.Entries {
			h.u8(uint8(e.Action))
			h.u32(uint32(len(e.Communities)))
			for _, c := range e.Communities {
				h.u32(uint32(c))
			}
		}
	})
	hashSortedMap(h, d.ASPathLists, func(l *ASPathList) {
		h.str(l.Name)
		h.u32(uint32(len(l.Entries)))
		for _, e := range l.Entries {
			h.u8(uint8(e.Action))
			h.str(e.Regex.String())
		}
	})
	hashSortedMap(h, d.RouteMaps, func(rm *RouteMap) {
		h.str(rm.Name)
		h.u32(uint32(len(rm.Clauses)))
		for _, cl := range rm.Clauses {
			h.u32(uint32(cl.Seq))
			h.u8(uint8(cl.Action))
			h.u32(uint32(len(cl.Matches)))
			for _, m := range cl.Matches {
				h.u8(uint8(m.Kind))
				h.str(m.Name)
			}
			h.u32(uint32(len(cl.Sets)))
			for _, s := range cl.Sets {
				h.u8(uint8(s.Kind))
				h.u32(s.Value)
				h.u32(uint32(len(s.Communities)))
				for _, c := range s.Communities {
					h.u32(uint32(c))
				}
				h.boolean(s.Additive)
				h.str(s.Name)
				h.u32(uint32(len(s.Prepend)))
				for _, a := range s.Prepend {
					h.u32(a)
				}
				h.u8(uint8(s.Origin))
			}
		}
	})
	return h.sum()
}

func hashOrig(d *Device) uint64 {
	h := newHasher()
	if d.BGP != nil {
		h.u32(uint32(len(d.BGP.Networks)))
		for _, p := range d.BGP.Networks {
			h.prefix(p)
		}
		h.u32(uint32(len(d.BGP.Aggregates)))
		for _, a := range d.BGP.Aggregates {
			h.prefix(a.Prefix)
			h.boolean(a.SummaryOnly)
			h.str(a.AttributeMap)
		}
	}
	return h.sum()
}

func hashDP(d *Device) uint64 {
	h := newHasher()
	names := d.InterfaceNames()
	h.u32(uint32(len(names)))
	for _, n := range names {
		ifc := d.Interfaces[n]
		h.str(ifc.Name)
		h.str(ifc.Description)
		h.str(ifc.InACL)
		h.str(ifc.OutACL)
	}
	hashSortedMap(h, d.ACLs, func(a *ACL) {
		h.str(a.Name)
		h.u32(uint32(len(a.Entries)))
		for _, e := range a.Entries {
			h.u8(uint8(e.Action))
			h.u8(e.Proto)
			h.prefix(e.Src)
			h.prefix(e.Dst)
			h.u32(uint32(e.SrcPortLo)<<16 | uint32(e.SrcPortHi))
			h.u32(uint32(e.DstPortLo)<<16 | uint32(e.DstPortHi))
		}
	})
	return h.sum()
}

func hashSortedMap[V any](h *hasher, m map[string]V, each func(V)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.u32(uint32(len(keys)))
	for _, k := range keys {
		h.str(k)
		each(m[k])
	}
}

// DeltaClass ranks how invasive a per-device change is for resident state.
// Higher values strictly subsume the re-verification work of lower ones.
type DeltaClass uint8

const (
	// DeltaNone: fingerprints identical — comment/whitespace-only edit.
	DeltaNone DeltaClass = iota
	// DeltaDP: only data-plane state changed (ACLs, bindings,
	// descriptions); RIBs stay valid, FIBs recompute.
	DeltaDP
	// DeltaOrig: locally originated BGP prefixes changed; only shards
	// containing affected prefixes (plus dependency closure) re-simulate.
	DeltaOrig
	// DeltaPolicy: route filtering/rewriting changed; every shard
	// re-simulates but the topology and partition inputs other than the
	// policy stay warm.
	DeltaPolicy
	// DeltaTopo: the control-plane graph changed (interfaces, OSPF, BGP
	// sessions, device add/remove/rename); full cold re-verification.
	DeltaTopo
)

func (c DeltaClass) String() string {
	switch c {
	case DeltaNone:
		return "none"
	case DeltaDP:
		return "dp"
	case DeltaOrig:
		return "orig"
	case DeltaPolicy:
		return "policy"
	case DeltaTopo:
		return "topo"
	}
	return "unknown"
}

// Classify compares two fingerprints of the same device and returns the
// most invasive class of change between them.
func Classify(old, new Fingerprint) DeltaClass {
	switch {
	case old.Topo != new.Topo:
		return DeltaTopo
	case old.Policy != new.Policy:
		return DeltaPolicy
	case old.Orig != new.Orig:
		return DeltaOrig
	case old.DP != new.DP:
		return DeltaDP
	}
	return DeltaNone
}

// SnapshotDiff is the per-device outcome of diffing two parsed snapshots.
type SnapshotDiff struct {
	// Changed maps device name → class for devices present in both
	// snapshots whose fingerprints differ (class > DeltaNone).
	Changed map[string]DeltaClass
	// Added and Removed list device names present in only one snapshot,
	// sorted. A rename appears as one Removed plus one Added.
	Added, Removed []string
}

// Class returns the most invasive class across the whole diff: device
// add/remove is DeltaTopo; otherwise the max over changed devices.
func (d *SnapshotDiff) Class() DeltaClass {
	if len(d.Added) > 0 || len(d.Removed) > 0 {
		return DeltaTopo
	}
	max := DeltaNone
	for _, c := range d.Changed {
		if c > max {
			max = c
		}
	}
	return max
}

// Empty reports whether the diff contains no semantic change.
func (d *SnapshotDiff) Empty() bool {
	return len(d.Changed) == 0 && len(d.Added) == 0 && len(d.Removed) == 0
}

// DiffSnapshots classifies every device by comparing fingerprints. A device
// both snapshots hold as the same parsed model (Snapshot.Clone) is unchanged
// by construction and is not fingerprinted.
func DiffSnapshots(old, new *Snapshot) *SnapshotDiff {
	diff := &SnapshotDiff{Changed: map[string]DeltaClass{}}
	for name, dev := range old.Devices {
		nd, ok := new.Devices[name]
		if !ok {
			diff.Removed = append(diff.Removed, name)
			continue
		}
		if nd == dev {
			continue
		}
		if c := Classify(DeviceFingerprint(dev), DeviceFingerprint(nd)); c != DeltaNone {
			diff.Changed[name] = c
		}
	}
	for name := range new.Devices {
		if _, ok := old.Devices[name]; !ok {
			diff.Added = append(diff.Added, name)
		}
	}
	sort.Strings(diff.Added)
	sort.Strings(diff.Removed)
	return diff
}

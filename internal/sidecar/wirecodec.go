package sidecar

import (
	"encoding/binary"
	"fmt"

	"s2/internal/bgp"
	"s2/internal/ospf"
	"s2/internal/route"
)

// Control-plane wire codec: varint encoding for batch route-pull replies,
// replacing gob's self-describing struct streams on the hottest
// controller-free RPC path (shadow-node pulls between workers). Device
// names repeat heavily across a reply set — every route names its next-hop
// node, every LSA its router and neighbors — so strings are interned into
// an inline table: the first occurrence travels once, repeats are a 1-2
// byte reference. This extends the PR 4 shared-substrate idea (dedup what
// repeats across a batch) from BDD nodes to route attributes.

// wireEnc is an append-only varint writer with inline string interning.
type wireEnc struct {
	buf  []byte
	strs map[string]uint64
}

func newWireEnc() *wireEnc { return &wireEnc{strs: map[string]uint64{}} }

func (e *wireEnc) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *wireEnc) byte(b byte) { e.buf = append(e.buf, b) }

func (e *wireEnc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// str writes a string reference: 0 followed by length+bytes on first
// occurrence (which assigns the next table id), or id+1 for a repeat.
func (e *wireEnc) str(s string) {
	if id, ok := e.strs[s]; ok {
		e.uvarint(id + 1)
		return
	}
	e.strs[s] = uint64(len(e.strs))
	e.uvarint(0)
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// wireDec mirrors wireEnc.
type wireDec struct {
	buf   []byte
	table []string
}

func (d *wireDec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("sidecar: wire codec: truncated varint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

// count reads a length prefix. Every counted element takes at least one
// byte, so a count larger than what remains is corrupt; rejecting it here
// keeps an untrusted prefix from sizing an allocation.
func (d *wireDec) count() (uint64, error) {
	n, err := d.uvarint()
	if err == nil && n > uint64(len(d.buf)) {
		err = fmt.Errorf("sidecar: wire codec: count %d exceeds remaining %d bytes", n, len(d.buf))
	}
	return n, err
}

func (d *wireDec) byte() (byte, error) {
	if len(d.buf) == 0 {
		return 0, fmt.Errorf("sidecar: wire codec: truncated byte")
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *wireDec) bool() (bool, error) {
	b, err := d.byte()
	return b != 0, err
}

func (d *wireDec) str() (string, error) {
	ref, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if ref > 0 {
		if ref-1 >= uint64(len(d.table)) {
			return "", fmt.Errorf("sidecar: wire codec: string ref %d out of table (%d entries)", ref-1, len(d.table))
		}
		return d.table[ref-1], nil
	}
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)) {
		return "", fmt.Errorf("sidecar: wire codec: string length %d exceeds remaining %d bytes", n, len(d.buf))
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	d.table = append(d.table, s)
	return s, nil
}

func (e *wireEnc) route(r *route.Route) {
	if r == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.uvarint(uint64(r.Prefix.Addr))
	e.byte(r.Prefix.Len)
	e.byte(byte(r.Protocol))
	e.uvarint(uint64(r.NextHop))
	e.str(r.NextHopNode)
	e.uvarint(uint64(r.Metric))
	e.uvarint(uint64(len(r.ASPath)))
	for _, a := range r.ASPath {
		e.uvarint(uint64(a))
	}
	e.uvarint(uint64(r.LocalPref))
	e.byte(byte(r.Origin))
	e.uvarint(uint64(len(r.Communities)))
	for _, c := range r.Communities {
		e.uvarint(uint64(c))
	}
	e.uvarint(uint64(r.OriginatorID))
	e.uvarint(uint64(r.PeerAS))
}

func (d *wireDec) route() (*route.Route, error) {
	present, err := d.bool()
	if err != nil || !present {
		return nil, err
	}
	r := &route.Route{}
	addr, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	plen, err := d.byte()
	if err != nil {
		return nil, err
	}
	r.Prefix = route.Prefix{Addr: uint32(addr), Len: plen}
	proto, err := d.byte()
	if err != nil {
		return nil, err
	}
	r.Protocol = route.Protocol(proto)
	nh, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	r.NextHop = uint32(nh)
	if r.NextHopNode, err = d.str(); err != nil {
		return nil, err
	}
	metric, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	r.Metric = uint32(metric)
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		r.ASPath = make([]uint32, n)
		for i := range r.ASPath {
			a, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			r.ASPath[i] = uint32(a)
		}
	}
	lp, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	r.LocalPref = uint32(lp)
	origin, err := d.byte()
	if err != nil {
		return nil, err
	}
	r.Origin = route.Origin(origin)
	if n, err = d.count(); err != nil {
		return nil, err
	}
	if n > 0 {
		r.Communities = make([]route.Community, n)
		for i := range r.Communities {
			c, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			r.Communities[i] = route.Community(c)
		}
	}
	oid, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	r.OriginatorID = uint32(oid)
	pas, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	r.PeerAS = uint32(pas)
	return r, nil
}

// advWithdrawn is the presence byte of a withdrawal: the advertisement
// carries only its prefix. 0 and 1 are route's absent and present.
const advWithdrawn = 2

func (e *wireEnc) adv(a bgp.Advertisement) {
	if !a.Withdrawn {
		e.route(a.Route)
		return
	}
	e.byte(advWithdrawn)
	e.uvarint(uint64(a.Route.Prefix.Addr))
	e.byte(a.Route.Prefix.Len)
}

func (d *wireDec) adv() (bgp.Advertisement, error) {
	if len(d.buf) == 0 || d.buf[0] != advWithdrawn {
		r, err := d.route()
		return bgp.Advertisement{Route: r}, err
	}
	d.buf = d.buf[1:]
	addr, err := d.uvarint()
	if err != nil {
		return bgp.Advertisement{}, err
	}
	plen, err := d.byte()
	if err != nil {
		return bgp.Advertisement{}, err
	}
	return bgp.Advertisement{Route: &route.Route{Prefix: route.Prefix{Addr: uint32(addr), Len: plen}}, Withdrawn: true}, nil
}

func (e *wireEnc) lsa(lsa *ospf.LSA) {
	if lsa == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.str(lsa.Router)
	e.uvarint(uint64(lsa.RouterID))
	e.uvarint(uint64(len(lsa.Links)))
	for _, l := range lsa.Links {
		e.str(l.Neighbor)
		e.uvarint(uint64(l.Cost))
	}
	e.uvarint(uint64(len(lsa.Stubs)))
	for _, s := range lsa.Stubs {
		e.uvarint(uint64(s.Prefix.Addr))
		e.byte(s.Prefix.Len)
		e.uvarint(uint64(s.Cost))
	}
}

func (d *wireDec) lsa() (*ospf.LSA, error) {
	present, err := d.bool()
	if err != nil || !present {
		return nil, err
	}
	lsa := &ospf.LSA{}
	if lsa.Router, err = d.str(); err != nil {
		return nil, err
	}
	rid, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	lsa.RouterID = uint32(rid)
	nlinks, err := d.count()
	if err != nil {
		return nil, err
	}
	if nlinks > 0 {
		lsa.Links = make([]ospf.LSALink, nlinks)
		for k := range lsa.Links {
			if lsa.Links[k].Neighbor, err = d.str(); err != nil {
				return nil, err
			}
			cost, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			lsa.Links[k].Cost = uint32(cost)
		}
	}
	nstubs, err := d.count()
	if err != nil {
		return nil, err
	}
	if nstubs > 0 {
		lsa.Stubs = make([]ospf.LSAStub, nstubs)
		for k := range lsa.Stubs {
			addr, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			plen, err := d.byte()
			if err != nil {
				return nil, err
			}
			lsa.Stubs[k].Prefix = route.Prefix{Addr: uint32(addr), Len: plen}
			cost, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			lsa.Stubs[k].Cost = uint32(cost)
		}
	}
	return lsa, nil
}

// encodeReplies packs a batch-pull reply set into the varint wire form:
// the reply count, then per reply its version, fresh flag, item count and
// items in the protocol's item encoding.
func encodeReplies[T any](replies []PullReply[T], item func(*wireEnc, T)) []byte {
	e := newWireEnc()
	e.uvarint(uint64(len(replies)))
	for _, rep := range replies {
		e.uvarint(rep.Version)
		e.bool(rep.Fresh)
		e.uvarint(uint64(len(rep.Items)))
		for _, it := range rep.Items {
			item(e, it)
		}
	}
	return e.buf
}

// decodeReplies unpacks encodeReplies output.
func decodeReplies[T any](payload []byte, item func(*wireDec) (T, error)) ([]PullReply[T], error) {
	d := &wireDec{buf: payload}
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	replies := make([]PullReply[T], n)
	for i := range replies {
		if replies[i].Version, err = d.uvarint(); err != nil {
			return nil, err
		}
		if replies[i].Fresh, err = d.bool(); err != nil {
			return nil, err
		}
		ni, err := d.count()
		if err != nil {
			return nil, err
		}
		if ni == 0 {
			continue
		}
		replies[i].Items = make([]T, ni)
		for j := range replies[i].Items {
			if replies[i].Items[j], err = item(d); err != nil {
				return nil, err
			}
		}
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("sidecar: wire codec: %d trailing bytes", len(d.buf))
	}
	return replies, nil
}

package sidecar

import (
	"encoding/hex"
	"reflect"
	"testing"

	"s2/internal/bgp"
	"s2/internal/ospf"
	"s2/internal/route"
)

type (
	bgpReplies = []PullReply[bgp.Advertisement]
	lsaReplies = []PullReply[*ospf.LSA]
)

func encodeBGP(r bgpReplies) []byte { return encodeReplies(r, (*wireEnc).adv) }
func encodeLSA(r lsaReplies) []byte { return encodeReplies(r, (*wireEnc).lsa) }
func decodeBGP(b []byte) (bgpReplies, error) {
	return decodeReplies(b, (*wireDec).adv)
}
func decodeLSA(b []byte) (lsaReplies, error) {
	return decodeReplies(b, (*wireDec).lsa)
}

func withdrawal(addr uint32, plen uint8) bgp.Advertisement {
	return bgp.Advertisement{Route: &route.Route{Prefix: route.MakePrefix(addr, plen)}, Withdrawn: true}
}

func wireRoute(addr uint32, nhNode string, path []uint32, comms []route.Community) *route.Route {
	return &route.Route{
		Prefix:       route.MakePrefix(addr, 24),
		Protocol:     route.BGP,
		NextHop:      0x0a000001,
		NextHopNode:  nhNode,
		Metric:       5,
		ASPath:       path,
		LocalPref:    100,
		Origin:       route.OriginIGP,
		Communities:  comms,
		OriginatorID: 0x01000002,
		PeerAS:       65002,
	}
}

func TestBGPWireCodecRoundTrip(t *testing.T) {
	comm := []route.Community{route.MakeCommunity(65000, 7)}
	cases := []bgpReplies{
		nil,
		{},
		{{Version: 3, Fresh: false}},
		{
			{
				Version: 42,
				Fresh:   true,
				Items: []bgp.Advertisement{
					{Route: wireRoute(0x0a800000, "edge-0-0", []uint32{65001, 65002}, comm)},
					{Route: wireRoute(0x0a800100, "edge-0-0", []uint32{65001}, comm)},
					{Route: wireRoute(0x0a800200, "agg-1-1", nil, comm)},
					withdrawal(0x0a800400, 24),
				},
			},
			{Version: 8, Fresh: true, Items: []bgp.Advertisement{withdrawal(0x0a000000, 8), withdrawal(0, 0)}},
			{Version: 7, Fresh: true, Items: []bgp.Advertisement{{Route: wireRoute(0x0a800300, "edge-0-0", nil, comm)}}},
			{Version: 9, Fresh: false},
		},
	}
	for i, replies := range cases {
		got, err := decodeBGP(encodeBGP(replies))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want := replies
		if want == nil {
			want = bgpReplies{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestBGPWireCodecSmallerThanNaive(t *testing.T) {
	// Many routes sharing one next-hop node: the interned string table
	// should make repeats nearly free.
	var advs []bgp.Advertisement
	for i := 0; i < 200; i++ {
		advs = append(advs, bgp.Advertisement{Route: &route.Route{
			Prefix:      route.MakePrefix(0x0a800000+uint32(i)*256, 24),
			Protocol:    route.BGP,
			NextHopNode: "a-rather-long-device-hostname-0-0",
			ASPath:      []uint32{65001, 65002, 65003},
		}})
	}
	payload := encodeBGP(bgpReplies{{Version: 1, Fresh: true, Items: advs}})
	naive := 200 * len("a-rather-long-device-hostname-0-0")
	if len(payload) >= naive {
		t.Fatalf("payload %d bytes, expected well under the %d bytes of repeated names alone", len(payload), naive)
	}
}

func TestLSAWireCodecRoundTrip(t *testing.T) {
	replies := lsaReplies{
		{Version: 11, Fresh: true, Items: []*ospf.LSA{
			{
				Router:   "r1",
				RouterID: 0x01000001,
				Links:    []ospf.LSALink{{Neighbor: "r2", Cost: 10}, {Neighbor: "r3", Cost: 20}},
				Stubs:    []ospf.LSAStub{{Prefix: route.MakePrefix(0x0a800000, 24), Cost: 1}},
			},
			{Router: "r2", RouterID: 0x01000002, Links: []ospf.LSALink{{Neighbor: "r1", Cost: 10}}},
			nil,
		}},
		{Version: 12, Fresh: false},
	}
	got, err := decodeLSA(encodeLSA(replies))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, replies) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, replies)
	}
}

// TestPullReplyWireBytesPinned pins the pull reply payloads byte for byte
// (protocol version 3 added the withdrawal; everything else is unchanged
// since version 1): a change to them is a wire change and needs a new
// ProtocolVersion.
func TestPullReplyWireBytesPinned(t *testing.T) {
	bgpSet := bgpReplies{
		{Version: 42, Fresh: true, Items: []bgp.Advertisement{
			{Route: wireRoute(0x0a800000, "edge-0-0", []uint32{65001, 65002}, []route.Community{route.MakeCommunity(65000, 7)})},
			{Route: wireRoute(0x0a800100, "edge-0-0", []uint32{65001}, nil)},
			{Route: nil},
			{Route: wireRoute(0x0a800200, "agg-1-1", nil, nil)},
			withdrawal(0x0a800500, 24),
		}},
		{Version: 7, Fresh: false},
		{Version: 9, Fresh: true, Items: []bgp.Advertisement{}},
		{Version: 3, Fresh: true, Items: []bgp.Advertisement{{Route: wireRoute(0x0a800300, "agg-1-1", []uint32{300000}, nil)}}},
	}
	lsaSet := lsaReplies{
		{Version: 11, Fresh: true, Items: []*ospf.LSA{
			{Router: "r1", RouterID: 0x01000001,
				Links: []ospf.LSALink{{Neighbor: "r2", Cost: 10}, {Neighbor: "r3", Cost: 20}},
				Stubs: []ospf.LSAStub{{Prefix: route.MakePrefix(0x0a800000, 24), Cost: 1}}},
			nil,
			{Router: "r2", RouterID: 0x01000002, Links: []ospf.LSALink{{Neighbor: "r1", Cost: 10}}},
			{Router: "r3", RouterID: 0x01000003},
		}},
		{Version: 12, Fresh: false},
		{Version: 13, Fresh: true, Items: []*ospf.LSA{nil, {Router: "r1", Links: []ospf.LSALink{{Neighbor: "r3", Cost: 1}}}}},
	}
	for _, tc := range []struct {
		name, want string
		got        []byte
	}{
		{"bgp", "042a010501808080541803818080500008656467652d302d300502e9fb03eafb036400018780a0ef0f82808008eafb03" +
			"0180828054180381808050010501e9fb0364000082808008eafb0300018084805418038180805000076167672d312d3105" +
			"0064000082808008eafb0302808a8054180700000901000301010180868054180381808050020501e0a71264000082808008" +
			"eafb03",
			encodeBGP(bgpSet)},
		{"lsa", "030b010401000272318180800802000272320a0002723314018080805418010001028280800801010a00010383808008" +
			"00000c00000d01020001010001030100",
			encodeLSA(lsaSet)},
		{"empty", "00", encodeBGP(nil)},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s reply bytes changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func TestWireCodecRejectsGarbage(t *testing.T) {
	good := encodeBGP(bgpReplies{{Version: 1, Fresh: true}})
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated varint", []byte{0xff, 0xff, 0xff}},
		{"trailing bytes", append(good, 0x00)},
		// Length prefixes larger than the payload: each must fail before
		// it sizes an allocation (the first one asks for 2^32 replies).
		{"huge reply count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"huge item count", []byte{0x01, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"huge as-path", []byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"truncated withdrawal", []byte{0x01, 0x01, 0x01, 0x01, 0x02, 0x80}},
		{"withdrawal without length", []byte{0x01, 0x01, 0x01, 0x01, 0x02, 0x0a}},
	} {
		if _, err := decodeBGP(tc.data); err == nil {
			t.Errorf("bgp %s: expected an error", tc.name)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"huge reply count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"huge link count", []byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x00, 0x01, 0x72, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}},
	} {
		if _, err := decodeLSA(tc.data); err == nil {
			t.Errorf("lsa %s: expected an error", tc.name)
		}
	}
}

// FuzzDecodePullReplies feeds arbitrary bytes to both reply decoders. They
// must never panic, and whatever decodes must survive a round trip.
func FuzzDecodePullReplies(f *testing.F) {
	comm := []route.Community{route.MakeCommunity(65000, 7)}
	f.Add(encodeBGP(bgpReplies{{Version: 4, Fresh: true, Items: []bgp.Advertisement{
		{Route: wireRoute(0x0a800000, "edge-0-0", []uint32{65001}, comm)}, {Route: nil}}}}))
	f.Add(encodeBGP(bgpReplies{{Version: 5, Fresh: true, Items: []bgp.Advertisement{
		withdrawal(0x0a800000, 24), {Route: wireRoute(0x0a800100, "edge-0-0", nil, nil)}, withdrawal(0, 0)}}}))
	f.Add(encodeBGP(bgpReplies{{Version: 6, Fresh: true, Items: []bgp.Advertisement{withdrawal(0xffffffff, 32)}}, {Version: 7}}))
	f.Add(encodeLSA(lsaReplies{{Version: 2, Fresh: true, Items: []*ospf.LSA{
		{Router: "r1", Links: []ospf.LSALink{{Neighbor: "r2", Cost: 1}}}, nil}}, {Version: 3}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := decodeBGP(data); err == nil {
			again, err := decodeBGP(encodeBGP(got))
			if err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("bgp round trip: %v\n got %+v\nwant %+v", err, again, got)
			}
		}
		if got, err := decodeLSA(data); err == nil {
			again, err := decodeLSA(encodeLSA(got))
			if err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("lsa round trip: %v\n got %+v\nwant %+v", err, again, got)
			}
		}
	})
}

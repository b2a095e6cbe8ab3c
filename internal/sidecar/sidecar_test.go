package sidecar

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"s2/internal/bgp"
	"s2/internal/dataplane"
	"s2/internal/ospf"
	"s2/internal/route"
)

// stubWorker implements WorkerAPI with canned responses so the RPC plumbing
// can be tested without internal/core (which would be an import cycle in
// spirit: core depends on sidecar).
type stubWorker struct {
	setups   int
	pings    int
	armed    []QueryBatchRequest
	batch    DeliverBatchRequest
	failPull bool
	slow     chan struct{} // when set, phase methods block until closed
}

func (s *stubWorker) Ping() error {
	s.pings++
	return nil
}

func (s *stubWorker) Setup(req SetupRequest) error {
	s.setups++
	if req.WorkerID < 0 {
		return errors.New("bad id")
	}
	return nil
}
func (s *stubWorker) BeginShard(BeginShardRequest) error { return nil }
func (s *stubWorker) GatherBGP() error {
	if s.slow != nil {
		<-s.slow
	}
	return nil
}
func (s *stubWorker) ApplyBGP() (ApplyReply, error) {
	return ApplyReply{Changed: true, ChangedNodes: 2, Routes: 17}, nil
}
func (s *stubWorker) GatherOSPF() error              { return nil }
func (s *stubWorker) ApplyOSPF() (ApplyReply, error) { return ApplyReply{}, nil }
func (s *stubWorker) EndShard() (EndShardReply, error) {
	return EndShardReply{Routes: 42, ModelBytes: 1000}, nil
}

func (s *stubWorker) PullBGPBatch(reqs []PullRequest) ([]PullReply[bgp.Advertisement], error) {
	replies := make([]PullReply[bgp.Advertisement], len(reqs))
	for i, q := range reqs {
		if s.failPull {
			return nil, fmt.Errorf("no node %s", q.Exporter)
		}
		r := &route.Route{Prefix: route.MustParsePrefix("10.0.0.0/24"), Protocol: route.BGP,
			ASPath: []uint32{65001}, LocalPref: 100}
		replies[i] = PullReply[bgp.Advertisement]{Items: []bgp.Advertisement{{Route: r}}, Version: 9, Fresh: true}
	}
	return replies, nil
}

func (s *stubWorker) PullLSABatch(reqs []PullRequest) ([]PullReply[*ospf.LSA], error) {
	replies := make([]PullReply[*ospf.LSA], len(reqs))
	for i, q := range reqs {
		lsas := []*ospf.LSA{{Router: q.Exporter, Stubs: []ospf.LSAStub{{Prefix: route.MustParsePrefix("10.0.0.0/31"), Cost: 1}}}}
		replies[i] = PullReply[*ospf.LSA]{Items: lsas, Version: 4, Fresh: true}
	}
	return replies, nil
}

func (s *stubWorker) ApplyDelta(req DeltaRequest) (DeltaReply, error) {
	return DeltaReply{Devices: len(req.Configs)}, nil
}

func (s *stubWorker) ComputeDP() (ComputeDPReply, error) {
	return ComputeDPReply{FIBEntries: 7, BDDNodes: 100}, nil
}
func (s *stubWorker) BeginQueryBatch(req QueryBatchRequest) error {
	s.armed = append(s.armed, req)
	return nil
}
func (s *stubWorker) DPRound() error { return nil }
func (s *stubWorker) HasWork() (bool, error) {
	return len(s.armed) > 0, nil
}
func (s *stubWorker) DeliverBatch(req DeliverBatchRequest) (DeliverBatchReply, error) {
	s.batch = req
	return DeliverBatchReply{Reset: true}, nil
}
func (s *stubWorker) FinishQuery() (OutcomeBatch, error) {
	return OutcomeBatch{Wire: []byte{1}, Outcomes: []dataplane.RawOutcome{{Source: "a", Node: "b", State: dataplane.Arrive}}}, nil
}

func (s *stubWorker) CollectRIBs() (map[string][]*route.Route, error) {
	return map[string][]*route.Route{"r1": {{Prefix: route.MustParsePrefix("10.0.0.0/24")}}}, nil
}
func (s *stubWorker) Stats() (WorkerStats, error) {
	return WorkerStats{WorkerID: 3, Nodes: 5, PeakBytes: 2048}, nil
}
func (s *stubWorker) PullSpans(PullSpansRequest) (PullSpansReply, error) {
	return PullSpansReply{}, nil
}
func (s *stubWorker) PullStats(PullStatsRequest) (PullStatsReply, error) {
	return PullStatsReply{Vitals: WorkerVitals{WorkerID: 3, Shard: 2, Round: 7, BDDNodes: 100, NowUnixMicro: time.Now().UnixMicro()}}, nil
}

func dialStub(t *testing.T) (*RemoteWorker, *stubWorker) {
	t.Helper()
	stub := &stubWorker{}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go Serve(stub, lis)
	client, err := DialTimeout(lis.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, stub
}

func TestRPCRoundTripAllMethods(t *testing.T) {
	client, stub := dialStub(t)
	if client.Addr() == "" {
		t.Error("Addr")
	}

	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := client.Setup(SetupRequest{WorkerID: 1}); err != nil {
		t.Fatal(err)
	}
	if stub.setups != 1 {
		t.Fatal("setup not delivered")
	}
	// Errors cross the wire.
	if err := client.Setup(SetupRequest{WorkerID: -1}); err == nil {
		t.Fatal("remote error must propagate")
	}

	if err := client.BeginShard(BeginShardRequest{Index: 2}); err != nil {
		t.Fatal(err)
	}
	if err := client.GatherBGP(); err != nil {
		t.Fatal(err)
	}
	bgpReply, err := client.ApplyBGP()
	if err != nil || !bgpReply.Changed || bgpReply.ChangedNodes != 2 || bgpReply.Routes != 17 {
		t.Fatalf("ApplyBGP reply: %+v %v", bgpReply, err)
	}
	if err := client.GatherOSPF(); err != nil {
		t.Fatal(err)
	}
	ospfReply, err := client.ApplyOSPF()
	if err != nil || ospfReply.Changed {
		t.Fatalf("ApplyOSPF reply: %+v %v", ospfReply, err)
	}
	end, err := client.EndShard()
	if err != nil || end.Routes != 42 || end.ModelBytes != 1000 {
		t.Fatalf("EndShard reply: %+v %v", end, err)
	}

	// Batched pulls: one round trip, replies aligned with the requests.
	bgpBatch, err := client.PullBGPBatch([]PullRequest{
		{Exporter: "r9", Puller: "r1"}, {Exporter: "r8", Puller: "r2", Since: 3, Seen: true},
	})
	if err != nil || len(bgpBatch) != 2 || bgpBatch[0].Version != 9 || !bgpBatch[1].Fresh || len(bgpBatch[0].Items) != 1 {
		t.Fatalf("PullBGPBatch: %+v %v", bgpBatch, err)
	}
	// Route attributes survive the varint encoding.
	if r := bgpBatch[0].Items[0].Route; r.ASPath[0] != 65001 || r.Prefix.String() != "10.0.0.0/24" {
		t.Fatalf("route mangled: %+v", r)
	}
	stub.failPull = true
	if _, err := client.PullBGPBatch([]PullRequest{{Exporter: "ghost", Puller: "r1"}}); err == nil {
		t.Fatal("pull error must propagate")
	}
	stub.failPull = false
	lsaBatch, err := client.PullLSABatch([]PullRequest{{Exporter: "r7", Puller: "r1"}})
	if err != nil || len(lsaBatch) != 1 || lsaBatch[0].Version != 4 || lsaBatch[0].Items[0].Router != "r7" ||
		len(lsaBatch[0].Items[0].Stubs) != 1 {
		t.Fatalf("PullLSABatch: %+v %v", lsaBatch, err)
	}

	dp, err := client.ComputeDP()
	if err != nil || dp.FIBEntries != 7 || dp.BDDNodes != 100 {
		t.Fatalf("ComputeDP: %+v %v", dp, err)
	}
	if err := client.BeginQueryBatch(QueryBatchRequest{
		Queries:      []dataplane.Query{{MaxHops: 5, Sources: []string{"r1", "r2"}}},
		ConstrainSrc: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.DPRound(); err != nil {
		t.Fatal(err)
	}
	busy, err := client.HasWork()
	if err != nil || !busy {
		t.Fatal("HasWork after arming a pass")
	}
	if len(stub.armed) != 1 || !stub.armed[0].ConstrainSrc || len(stub.armed[0].Queries) != 1 ||
		!reflect.DeepEqual(stub.armed[0].Queries[0].Sources, []string{"r1", "r2"}) {
		t.Fatalf("armed passes = %+v", stub.armed)
	}
	breply, err := client.DeliverBatch(DeliverBatchRequest{From: 1, Wire: []byte{9}, Items: []WirePacket{{Source: "a", Node: "b", Root: 2}}})
	if err != nil || !breply.Reset {
		t.Fatalf("DeliverBatch: %+v %v", breply, err)
	}
	if stub.batch.From != 1 || len(stub.batch.Items) != 1 || stub.batch.Items[0].Root != 2 {
		t.Fatalf("DeliverBatch payload: %+v", stub.batch)
	}
	batch, err := client.FinishQuery()
	if err != nil || len(batch.Outcomes) != 1 || batch.Outcomes[0].State != dataplane.Arrive || len(batch.Wire) != 1 {
		t.Fatalf("FinishQuery: %v %v", batch, err)
	}

	ribs, err := client.CollectRIBs()
	if err != nil || len(ribs["r1"]) != 1 {
		t.Fatalf("CollectRIBs: %v %v", ribs, err)
	}
	st, err := client.Stats()
	if err != nil || st.WorkerID != 3 || st.PeakBytes != 2048 {
		t.Fatalf("Stats: %+v %v", st, err)
	}

	vit, err := client.PullStats(PullStatsRequest{})
	if err != nil || vit.Vitals.WorkerID != 3 || vit.Vitals.Shard != 2 ||
		vit.Vitals.Round != 7 || vit.Vitals.BDDNodes != 100 || vit.Vitals.NowUnixMicro == 0 {
		t.Fatalf("PullStats: %+v %v", vit, err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialTimeout("127.0.0.1:1", 0); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

// timeoutIntercept is a minimal interceptor bounding each call, standing in
// for fault.Wrap (which sidecar cannot import without a cycle).
func timeoutIntercept(d time.Duration) func(method string, call func() error) error {
	return func(method string, call func() error) error {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			return err
		case <-time.After(d):
			return fmt.Errorf("%s deadline exceeded", method)
		}
	}
}

// TestDeadlineOnHungServer: a server that accepts but never answers must
// not hang a wrapped client.
func TestDeadlineOnHungServer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, answer nothing
		}
	}()
	client, err := DialTimeout(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	api := Intercept(client, timeoutIntercept(100*time.Millisecond))
	start := time.Now()
	if err := api.Ping(); err == nil {
		t.Fatal("Ping against a hung server must fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the call: took %v", elapsed)
	}
}

// TestServerGracefulDrain: Shutdown with a grace period rejects new RPCs
// but lets the in-flight one finish successfully.
func TestServerGracefulDrain(t *testing.T) {
	stub := &stubWorker{slow: make(chan struct{})}
	srv := NewServer(stub)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	client, err := DialTimeout(lis.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	inflight := make(chan error, 1)
	go func() { inflight <- client.GatherBGP() }() // blocks on stub.slow
	time.Sleep(50 * time.Millisecond)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Shutdown(5 * time.Second)
	}()
	time.Sleep(50 * time.Millisecond)

	// New work is rejected while draining.
	if err := client.Ping(); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("Ping during drain: want draining error, got %v", err)
	}
	// The in-flight call completes cleanly.
	close(stub.slow)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight RPC failed during graceful drain: %v", err)
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// TestServerAbruptShutdown: Shutdown(0) severs in-flight calls — the crash
// simulation used by the fault tests.
func TestServerAbruptShutdown(t *testing.T) {
	stub := &stubWorker{slow: make(chan struct{})}
	defer close(stub.slow)
	srv := NewServer(stub)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	client, err := DialTimeout(lis.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	inflight := make(chan error, 1)
	go func() { inflight <- client.GatherBGP() }()
	time.Sleep(50 * time.Millisecond)
	srv.Shutdown(0)
	if err := <-inflight; err == nil {
		t.Fatal("in-flight RPC must fail on abrupt shutdown")
	}
}

// Interface conformance: both implementations satisfy WorkerAPI.
var (
	_ WorkerAPI = (*stubWorker)(nil)
	_ WorkerAPI = (*RemoteWorker)(nil)
)

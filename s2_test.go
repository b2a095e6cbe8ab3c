package s2

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"s2/internal/sidecar"
)

func fatTree4(t *testing.T) *Network {
	t.Helper()
	net, err := SynthesizeFatTree(FatTreeSpec{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPublicAPIEndToEnd(t *testing.T) {
	net := fatTree4(t)
	if net.Size() != 20 || len(net.Devices()) != 20 {
		t.Fatalf("size = %d", net.Size())
	}
	v, err := NewVerifier(net, Options{Workers: 4, Shards: 2, KeepRIBs: true})
	if err != nil {
		t.Fatal(err)
	}
	if w := v.TopologyWarnings(); len(w) != 0 {
		t.Fatalf("warnings: %v", w)
	}
	if err := v.SimulateControlPlane(); err != nil {
		t.Fatal(err)
	}
	warnings, err := v.ComputeDataPlane()
	if err != nil || len(warnings) != 0 {
		t.Fatalf("dp: %v %v", warnings, err)
	}
	rep, err := v.CheckAllPairs()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("report: %s", rep)
	}
	if !strings.Contains(rep.String(), "OK") {
		t.Errorf("String: %q", rep.String())
	}
	count, err := v.RouteCount()
	if err != nil || count == 0 {
		t.Fatalf("routes: %d %v", count, err)
	}
	ribs, err := v.RIBs()
	if err != nil || len(ribs) != 20 {
		t.Fatalf("ribs: %d %v", len(ribs), err)
	}
	stats, err := v.Stats()
	if err != nil || len(stats) != 4 {
		t.Fatalf("stats: %v %v", stats, err)
	}
	peak, err := v.PeakMemoryBytes()
	if err != nil || peak <= 0 {
		t.Fatalf("peak: %d %v", peak, err)
	}
	if len(v.PhaseDurations()) == 0 {
		t.Fatal("phases")
	}
}

func TestPublicAPIImplicitPipeline(t *testing.T) {
	// CheckAllPairs should run the earlier phases automatically.
	v, err := NewVerifier(fatTree4(t), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.CheckAllPairs()
	if err != nil || !rep.OK() {
		t.Fatalf("implicit pipeline: %v %v", rep, err)
	}
}

func TestPublicQueryAPI(t *testing.T) {
	net, err := SynthesizeFatTree(FatTreeSpec{K: 4, WithACL: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(net, Options{Workers: 4, WaypointBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The ACL blackholes edge-0-0's prefix (10.128.0.0/24).
	rep, err := v.Check(Query{
		DstPrefix: "10.128.0.0/24",
		Sources:   []string{"edge-1-0"},
		Dests:     []string{"edge-0-0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("ACL blackhole must be reported")
	}
	kinds := map[string]bool{}
	for _, vio := range rep.Violations {
		kinds[vio.Kind] = true
	}
	if !kinds["blackhole"] {
		t.Fatalf("violations = %+v", rep.Violations)
	}

	// A clean pair passes with reached dests recorded.
	rep2, err := v.Check(Query{
		DstPrefix: "10.128.64.0/24", // edge index 1's prefix
		Sources:   []string{"edge-0-0"},
		Dests:     []string{"edge-0-1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.OK() || len(rep2.ReachedDests) == 0 {
		t.Fatalf("clean pair: %+v", rep2)
	}

	// Bad query inputs.
	if _, err := v.Check(Query{DstPrefix: "not-a-prefix"}); err == nil {
		t.Fatal("bad prefix must fail")
	}
	if _, err := v.Check(Query{Transits: []string{"a", "b", "c"}}); err == nil {
		t.Fatal("too many transits must fail")
	}
}

func TestLoadDirectoryRoundTrip(t *testing.T) {
	net := fatTree4(t)
	dir := t.TempDir()
	for name, text := range net.ConfigTexts() {
		if err := os.WriteFile(filepath.Join(dir, name+".cfg"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadDirectory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != net.Size() {
		t.Fatalf("loaded %d devices, want %d", loaded.Size(), net.Size())
	}
	v, err := NewVerifier(loaded, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.CheckAllPairs()
	if err != nil || !rep.OK() {
		t.Fatalf("round-tripped network: %v %v", rep, err)
	}
}

func TestNewVerifierValidation(t *testing.T) {
	net := fatTree4(t)
	if _, err := NewVerifier(net, Options{PartitionScheme: "bogus"}); err == nil {
		t.Fatal("bad scheme must fail")
	}
	// Defaults: 1 worker, seed 1.
	v, err := NewVerifier(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.SimulateControlPlane(); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeDCNPublic(t *testing.T) {
	net, err := SynthesizeDCN(DCNSpec{
		Clusters: 2, TORsPerCluster: 2, FabricWidth: 2, CoreWidth: 2,
		WithAggregation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(net, Options{Workers: 3, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.CheckAllPairs()
	if err != nil || !rep.OK() {
		t.Fatalf("DCN: %v %v", rep, err)
	}
}

func TestFatTreeLoadEstimatorExported(t *testing.T) {
	load := FatTreeLoadEstimator(4)
	if load("core-0") != 32 || load("edge-0-0") != 16 {
		t.Fatal("estimator")
	}
	if FatTreeSize(8) != 80 {
		t.Fatal("FatTreeSize")
	}
}

func TestCheckBatchMatchesSequentialChecks(t *testing.T) {
	v, err := NewVerifier(fatTree4(t), Options{Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ComputeDataPlane(); err != nil {
		t.Fatal(err)
	}
	qs := []Query{
		{DstPrefix: "10.128.0.0/24", Dests: []string{"edge-0-0"}},
		{DstPrefix: "10.128.64.0/24", Sources: []string{"edge-0-0"}, Dests: []string{"edge-0-1"}},
		{Protocol: 6, DstPort: 80},
	}
	reps, err := v.CheckBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(qs) {
		t.Fatalf("got %d reports for %d queries", len(reps), len(qs))
	}
	for i, q := range qs {
		solo, err := v.Check(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if reps[i].OK() != solo.OK() || len(reps[i].Violations) != len(solo.Violations) ||
			len(reps[i].ReachedDests) != len(solo.ReachedDests) {
			t.Errorf("query %d: batch report %+v differs from solo %+v", i, reps[i], solo)
		}
		if reps[i].Epoch != v.Epoch() {
			t.Errorf("query %d: epoch %d, want %d", i, reps[i].Epoch, v.Epoch())
		}
	}
	if batch, err := v.CheckBatch(nil); err != nil || batch != nil {
		t.Fatalf("empty batch: %v %v", batch, err)
	}
	if _, err := v.CheckBatch([]Query{{DstPrefix: "bogus"}}); err == nil {
		t.Fatal("bad query in a batch must fail")
	}
}

// TestConcurrentQueriesDuringApplyDelta races warm queries against config
// deltas: every answer must carry the epoch of a state that was current at
// some point during the call — never an epoch older than the one observed
// before the query was issued (a stale-cache answer), and never one newer
// than the state at return.
func TestConcurrentQueriesDuringApplyDelta(t *testing.T) {
	net := fatTree4(t)
	v, err := NewVerifier(net, Options{Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ComputeDataPlane(); err != nil {
		t.Fatal(err)
	}
	q := Query{DstPrefix: "10.128.64.0/24", Sources: []string{"edge-0-0"}, Dests: []string{"edge-0-1"}}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := v.Epoch()
				rep, err := v.Check(q)
				if err != nil {
					errs <- err
					return
				}
				after := v.Epoch()
				if rep.Epoch < before || rep.Epoch > after {
					errs <- fmt.Errorf("stale answer: epoch %d outside [%d, %d]", rep.Epoch, before, after)
					return
				}
				if !rep.OK() {
					errs <- fmt.Errorf("clean pair failed at epoch %d: %+v", rep.Epoch, rep.Violations)
					return
				}
			}
		}()
	}

	dev := net.Devices()[0]
	text := v.ConfigText(dev)
	for i := 0; i < 3; i++ {
		if _, err := v.ApplyDelta(map[string]string{dev: text}, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSlowWorkerMethodsArePhaseCalls: the straggler rehearsal delays phase
// RPCs only, never the failure detector's Ping or the telemetry probes.
func TestSlowWorkerMethodsArePhaseCalls(t *testing.T) {
	for _, m := range slowWorkerMethods {
		if !sidecar.PhaseClass(m) {
			t.Errorf("slowWorkerMethods lists %s, which is not a phase call", m)
		}
	}
}

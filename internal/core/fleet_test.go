// Fleet health plane tests: straggler analytics must flag exactly the
// slowed worker, the vitals sampler must fill the history ring and the
// fleet snapshot, profile harvest must round-trip a parseable pprof proto,
// and a run with the plane disabled must issue no probe RPC and start no
// sampler.

package core

import (
	"sync/atomic"
	"testing"
	"time"

	"s2/internal/fault"
	"s2/internal/obs"
	"s2/internal/sidecar"
)

// slowPhaseMethods mirrors the s2-level straggler knob: every phase RPC,
// never Ping (the failure detector must stay clean) and never the
// probe-class pulls (they measure the straggler).
var slowPhaseMethods = []string{
	"BeginShard", "GatherBGP", "ApplyBGP", "GatherOSPF", "ApplyOSPF",
	"EndShard", "ComputeDP", "BeginQueryBatch", "DPRound",
	"FinishQuery",
}

// slowWorkerHook wraps one worker's transport with a persistent per-call
// delay on every phase method.
func slowWorkerHook(slow int, delay time.Duration) func(int, sidecar.WorkerAPI) sidecar.WorkerAPI {
	return func(id int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
		if id != slow {
			return w
		}
		plans := make([]fault.Plan, 0, len(slowPhaseMethods))
		for _, m := range slowPhaseMethods {
			plans = append(plans, fault.Plan{Method: m, Mode: fault.Delay, Delay: delay})
		}
		return fault.NewInjector(w, plans...)
	}
}

func TestStragglerAnalyticsFlagsSlowWorker(t *testing.T) {
	reg := obs.NewRegistry()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		Workers: 3, Shards: 2, Seed: 5,
		Metrics:    reg,
		FleetPlane: true,
		// Long interval: this test exercises the per-round skew scoring,
		// not the sampler cadence.
		HeartbeatInterval: time.Hour,
		WrapWorker:        slowWorkerHook(1, 15*time.Millisecond),
	})
	defer c.Close()
	res := runFull(t, c)
	if len(res.Unreached) != 0 || len(res.Violations) != 0 {
		t.Fatalf("slowed run must still verify: %+v", res)
	}

	scores := c.StragglerScores()
	if len(scores) == 0 {
		t.Fatal("no straggler scores recorded")
	}
	if scores[1] <= 0 {
		t.Fatalf("slowed worker 1 score = %v, want > 0 (scores %v)", scores[1], scores)
	}
	// Only the injected straggler accumulates a material score: the others
	// sit at or near the round median.
	for _, id := range []int{0, 2} {
		if scores[id] >= scores[1] {
			t.Errorf("worker %d score %v >= slowed worker's %v", id, scores[id], scores[1])
		}
		if scores[id] > scores[1]/2 {
			t.Errorf("worker %d score %v too close to the straggler's %v", id, scores[id], scores[1])
		}
	}

	// The scores ride the registry and the fleet snapshot.
	snapMetrics := reg.Snapshot()
	if v := snapMetrics[`s2_straggler_score{worker="1"}`]; v <= 0 {
		t.Errorf(`s2_straggler_score{worker="1"} = %v, want > 0`, v)
	}
	foundSkew := false
	for k, v := range snapMetrics {
		if len(k) > len(MetricRoundSkew) && k[:len(MetricRoundSkew)] == MetricRoundSkew && v > 0 {
			foundSkew = true
		}
	}
	if !foundSkew {
		t.Error("no positive s2_round_skew_seconds series in the registry")
	}
	health := c.FleetHealth()
	if len(health.RoundSkewSeconds) == 0 {
		t.Error("FleetHealth.RoundSkewSeconds empty after a skewed run")
	}

	// The -report table carries the score on the straggler's row only.
	rep := c.AttributionReport()
	for _, w := range rep.Workers {
		if w.Worker == 1 && w.StragglerScore <= 0 {
			t.Errorf("report row for worker 1 missing straggler score: %+v", w)
		}
	}
}

func TestFleetSamplerHistoryAndHealth(t *testing.T) {
	reg := obs.NewRegistry()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		Workers: 3, Seed: 6,
		Metrics:           reg,
		FleetPlane:        true,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	defer c.Close()
	runFull(t, c)

	h := c.History()
	if h == nil {
		t.Fatal("History() = nil with FleetPlane set")
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.Rounds() < 5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if h.Rounds() < 5 {
		t.Fatalf("history rounds = %d after 5s, want >= 5", h.Rounds())
	}
	// Per-worker vitals gauges land in the registry snapshot, and from
	// there in the history ring.
	if pts := h.Series(`s2_worker_goroutines{worker="0"}`, 0); len(pts) == 0 {
		t.Errorf("no worker-0 goroutines series; have %v", h.Names()[:min(len(h.Names()), 10)])
	}

	health := c.FleetHealth()
	if len(health.Workers) != 3 {
		t.Fatalf("fleet health has %d workers, want 3: %+v", len(health.Workers), health)
	}
	for _, w := range health.Workers {
		if w.Goroutines <= 0 {
			t.Errorf("worker %d goroutines = %d, want > 0", w.Worker, w.Goroutines)
		}
		if w.HeapBytes <= 0 {
			t.Errorf("worker %d heap = %d, want > 0", w.Worker, w.HeapBytes)
		}
	}
	if health.Epoch == 0 || health.HistoryRounds < 5 {
		t.Errorf("health epoch=%d rounds=%d, want epoch>0 rounds>=5", health.Epoch, health.HistoryRounds)
	}

	// Close stops the sampler; the ring must go quiet.
	c.Close()
	rounds := h.Rounds()
	time.Sleep(50 * time.Millisecond)
	if h.Rounds() != rounds {
		t.Error("sampler kept recording after Close")
	}
}

func TestPullWorkerProfile(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		Workers: 2, Seed: 7,
		FleetPlane: true,
	})
	defer c.Close()
	runCP(t, c)

	p, err := c.PullWorkerProfile(0, "heap", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Worker != 0 || p.Kind != "heap" || p.ID == "" {
		t.Fatalf("profile = %+v", p)
	}
	// runtime/pprof writes gzip-framed protos; the magic is the cheap
	// "go tool pprof can read this" check.
	if len(p.Data) < 2 || p.Data[0] != 0x1f || p.Data[1] != 0x8b {
		t.Fatalf("profile data not gzip-framed: % x...", p.Data[:min(len(p.Data), 4)])
	}
	if c.Profiles().Len() != 1 || c.Profiles().Get(p.ID) == nil {
		t.Error("profile not stored in the ring")
	}

	if _, err := c.PullWorkerProfile(0, "bogus", 0); err == nil {
		t.Error("unknown kind must error")
	}
	if _, err := c.PullWorkerProfile(99, "heap", 0); err == nil {
		t.Error("out-of-range worker must error")
	}

	// CPU capture blocks for the sampling window and still lands.
	cp, err := c.PullWorkerProfile(1, "cpu", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Kind != "cpu" || len(cp.Data) == 0 {
		t.Fatalf("cpu profile = %+v", cp)
	}
}

// countingWorker counts probe-class RPCs that reach the transport.
type countingWorker struct {
	sidecar.WorkerAPI
	statsPulls   *atomic.Int64
	profilePulls *atomic.Int64
}

func (w countingWorker) PullStats(req sidecar.PullStatsRequest) (sidecar.PullStatsReply, error) {
	w.statsPulls.Add(1)
	return w.WorkerAPI.PullStats(req)
}

func (w countingWorker) PullProfile(req sidecar.PullProfileRequest) (sidecar.PullProfileReply, error) {
	w.profilePulls.Add(1)
	return w.WorkerAPI.PullProfile(req)
}

func TestFleetPlaneZeroOverheadWhenDisabled(t *testing.T) {
	var stats, profiles atomic.Int64
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		Workers: 2, Seed: 8,
		WrapWorker: func(_ int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
			return countingWorker{WorkerAPI: w, statsPulls: &stats, profilePulls: &profiles}
		},
	})
	defer c.Close()
	runFull(t, c)

	if c.History() != nil || c.Profiles() != nil {
		t.Error("disabled plane must expose nil history and profile store")
	}
	if c.statsStop != nil {
		t.Error("disabled plane must not start the sampler goroutine")
	}
	if n := stats.Load(); n != 0 {
		t.Errorf("disabled plane issued %d PullStats RPCs, want 0", n)
	}
	if n := profiles.Load(); n != 0 {
		t.Errorf("disabled plane issued %d PullProfile RPCs, want 0", n)
	}
	if len(c.StragglerScores()) != 0 {
		t.Error("disabled plane must not accumulate straggler scores")
	}
	if _, err := c.PullWorkerProfile(0, "heap", 0); err == nil {
		t.Error("PullWorkerProfile must error when the store is disabled")
	}
	if h := c.FleetHealth(); len(h.Workers) != 0 || h.HistoryRounds != 0 {
		t.Errorf("disabled plane fleet health = %+v, want empty", h)
	}
}

// TestFleetSamplerTCP covers the remote path: PullStats over the sidecar
// wire feeds the fleet snapshot for TCP workers too.
func TestFleetSamplerTCP(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)
	addrs, _, _ := startTracedRemoteWorkers(t, 2)
	c := newS2(t, snap, texts, Options{
		WorkerAddrs: addrs, Seed: 9,
		FleetPlane:        true,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	defer c.Close()
	runCP(t, c)

	deadline := time.Now().Add(5 * time.Second)
	for len(c.FleetHealth().Workers) < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	health := c.FleetHealth()
	if len(health.Workers) != 2 {
		t.Fatalf("fleet health has %d workers, want 2", len(health.Workers))
	}
	for _, w := range health.Workers {
		if w.RSSBytes <= 0 && w.HeapBytes <= 0 {
			t.Errorf("worker %d reported no memory vitals: %+v", w.Worker, w)
		}
	}
	// Without a registry the history falls back to vitals-only series.
	if pts := c.History().Series(`s2_worker_heap_bytes{worker="0"}`, 0); len(pts) == 0 {
		t.Errorf("no fallback heap series; have %v", c.History().Names())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

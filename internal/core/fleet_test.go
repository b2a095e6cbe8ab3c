// Fleet health tests: straggler analytics must flag exactly the slowed
// worker, the vitals sampler must fill the per-worker gauges in process and
// over TCP and stop at Close, and a run without a registry must issue no
// probe RPC and start no sampler.

package core

import (
	"fmt"
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
		Metrics: reg,
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

	// The scores and the round skew ride the registry.
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

	// The -report table carries the score on the straggler's row only.
	rep := c.AttributionReport()
	for _, w := range rep.Workers {
		if w.Worker == 1 && w.StragglerScore <= 0 {
			t.Errorf("report row for worker 1 missing straggler score: %+v", w)
		}
	}
}

// waitVitals polls reg until every worker in [0, n) has positive
// goroutine and heap gauges, and returns the last snapshot.
func waitVitals(t *testing.T, reg *obs.Registry, n int) map[string]float64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := reg.Snapshot()
		missing := ""
		for id := 0; id < n && missing == ""; id++ {
			for _, m := range []string{MetricWorkerGoroutines, MetricWorkerHeap} {
				if key := fmt.Sprintf(`%s{worker="%d"}`, m, id); snap[key] <= 0 {
					missing = key
					break
				}
			}
		}
		if missing == "" {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not positive after 5s", missing)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFleetSamplerHistoryAndHealth(t *testing.T) {
	var stats atomic.Int64
	reg := obs.NewRegistry()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		Workers: 3, Seed: 6,
		Metrics:           reg,
		HeartbeatInterval: 10 * time.Millisecond,
		WrapWorker: func(_ int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
			return countingWorker{WorkerAPI: w, statsPulls: &stats}
		},
	})
	defer c.Close()
	runFull(t, c)

	// Per-worker vitals land in the registry, one series per worker.
	vitals := waitVitals(t, reg, 3)
	if v, ok := vitals[`s2_worker_goroutines{worker="3"}`]; ok {
		t.Errorf("vitals for a fourth worker: %v", v)
	}
	deadline := time.Now().Add(5 * time.Second)
	for stats.Load() < 5*3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := stats.Load(); n < 5*3 {
		t.Fatalf("sampler issued %d PullStats after 5s, want >= 15 (5 sweeps of 3 workers)", n)
	}

	// Close stops the sampler; the probes must go quiet.
	c.Close()
	pulls := stats.Load()
	time.Sleep(50 * time.Millisecond)
	if stats.Load() != pulls {
		t.Error("sampler kept pulling vitals after Close")
	}
}

// countingWorker counts the PullStats probes that reach the transport.
type countingWorker struct {
	sidecar.WorkerAPI
	statsPulls *atomic.Int64
}

func (w countingWorker) PullStats(req sidecar.PullStatsRequest) (sidecar.PullStatsReply, error) {
	w.statsPulls.Add(1)
	return w.WorkerAPI.PullStats(req)
}

// TestFleetPlaneZeroOverheadWhenDisabled: without a registry no sampler
// starts, no probe RPC is issued and no straggler score accumulates; a
// registry alone starts the sampler.
func TestFleetPlaneZeroOverheadWhenDisabled(t *testing.T) {
	run := func(reg *obs.Registry) (*Controller, int64) {
		var stats atomic.Int64
		snap, texts := fatTreeSnap(t, 4)
		c := newS2(t, snap, texts, Options{
			Workers: 2, Seed: 8,
			Metrics: reg,
			WrapWorker: func(_ int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
				return countingWorker{WorkerAPI: w, statsPulls: &stats}
			},
		})
		t.Cleanup(func() { c.Close() })
		runFull(t, c)
		return c, stats.Load()
	}

	c, pulls := run(nil)
	if c.statsStop != nil {
		t.Error("no registry: the sampler goroutine must not start")
	}
	if pulls != 0 {
		t.Errorf("no registry: %d PullStats RPCs, want 0", pulls)
	}
	if len(c.StragglerScores()) != 0 {
		t.Error("no registry: straggler scores must not accumulate")
	}

	c, pulls = run(obs.NewRegistry())
	if c.statsStop == nil {
		t.Error("a registry must start the sampler")
	}
	if pulls == 0 {
		t.Error("a registry must start the sampler: no PullStats RPC issued")
	}
}

// TestFleetSamplerTCP covers the remote path: PullStats over the sidecar
// wire feeds the per-worker gauges for TCP workers too.
func TestFleetSamplerTCP(t *testing.T) {
	reg := obs.NewRegistry()
	snap, texts := fatTreeSnap(t, 4)
	addrs, _, _ := startTracedRemoteWorkers(t, 2)
	c := newS2(t, snap, texts, Options{
		WorkerAddrs: addrs, Seed: 9,
		Metrics:           reg,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	defer c.Close()
	runCP(t, c)
	waitVitals(t, reg, 2)
}

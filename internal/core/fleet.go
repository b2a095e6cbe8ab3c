// Fleet health: the one signal an operator reads is "which worker is
// slow". Every orchestration round scores each worker's duration against
// the round median into a per-worker EWMA (the straggler score — the
// sensor the ROADMAP's parked work-stealing item would act on), and a
// sampler pulls every worker's vitals (shard/round progress, BDD nodes, GC
// pause p99, RSS, heap, goroutines) on the heartbeat cadence. Both write
// only the registry's gauges, so both are gated on Options.Metrics: with no
// registry no goroutine starts and no probe RPC is issued. History lives
// in whatever scrapes /metrics; per-worker profiles come from each TCP
// worker's own /debug/pprof (s2worker -obs-addr), and in-process workers
// share the controller's.

package core

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"s2/internal/obs"
	"s2/internal/sidecar"
)

// stragglerAlpha is the EWMA weight of the newest round's skew sample in
// a worker's straggler score.
const stragglerAlpha = 0.3

// stragglerLogThreshold gates the structured-event/flight path: rounds
// where the slowest worker is under 2x the median, or the absolute skew
// is under this floor, are normal jitter and not worth an event.
const stragglerLogThreshold = 10 * time.Millisecond

// StragglerScores returns the per-worker straggler EWMA (directory index →
// score; 0 = keeping pace with the round median).
func (c *Controller) StragglerScores() map[int]float64 {
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	out := make(map[int]float64, len(c.stragglers))
	for id, s := range c.stragglers {
		out[id] = s
	}
	return out
}

// startStatsSampler launches the background vitals loop when a registry
// is wired. It rides the heartbeat cadence (else every 5s).
func (c *Controller) startStatsSampler() {
	if c.reg == nil || c.statsStop != nil || c.closed.Load() {
		return
	}
	interval := c.opts.HeartbeatInterval
	if interval <= 0 {
		interval = harvestInterval
	}
	c.statsStop = make(chan struct{})
	stop := c.statsStop
	c.statsWG.Add(1)
	go func() {
		defer c.statsWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		c.sampleFleet()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.sampleFleet()
			}
		}
	}()
}

func (c *Controller) stopStatsSampler() {
	if c.statsStop == nil {
		return
	}
	close(c.statsStop)
	c.statsWG.Wait()
	c.statsStop = nil
}

// vitalsSample is one worker's PullStats reply with the local send and
// receive times its clock-offset sample needs.
type vitalsSample struct {
	id         int
	sent, recv time.Time
	v          sidecar.WorkerVitals
}

// sampleFleet pulls vitals from every worker and refreshes the per-worker
// gauges and clock-offset estimators. Errors are swallowed — sampling is
// telemetry, never a run failure. The results land only if the directory
// still has the length the sweep saw: eviction only ever shrinks it, and a
// sweep that raced one would write a vanished slot, or a moved worker's
// vitals under its old slot, after evict cleared them.
func (c *Controller) sampleFleet() {
	c.wmu.RLock()
	workers := append([]sidecar.WorkerAPI(nil), c.workers...)
	clients := append([]*sidecar.RemoteWorker(nil), c.clients...)
	c.wmu.RUnlock()
	samples := make([]vitalsSample, 0, len(workers))
	for i, w := range workers {
		if w == nil {
			continue
		}
		sent := time.Now()
		reply, err := w.PullStats(sidecar.PullStatsRequest{})
		if err != nil {
			continue
		}
		samples = append(samples, vitalsSample{id: i, sent: sent, recv: time.Now(), v: reply.Vitals})
	}
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	if len(c.workers) != len(workers) {
		return
	}
	for _, s := range samples {
		if s.id < len(clients) && clients[s.id] != nil {
			c.skewFor(clients[s.id]).Observe(s.sent, s.recv, s.v.NowUnixMicro)
		}
		c.setWorkerGauges(s.id, s.v)
	}
}

// setWorkerGauges mirrors one worker's vitals into the registry.
func (c *Controller) setWorkerGauges(id int, v sidecar.WorkerVitals) {
	if c.reg == nil {
		return
	}
	lbl := fmt.Sprint(id)
	c.reg.Gauge(MetricWorkerShard, "Current shard index per worker (fleet sampler).", "worker").Set(float64(v.Shard), lbl)
	c.reg.Gauge(MetricWorkerRound, "Current wavefront round per worker (fleet sampler).", "worker").Set(float64(v.Round), lbl)
	c.reg.Gauge(MetricWorkerQueueLen, "Parked symbolic packets per worker (fleet sampler).", "worker").Set(float64(v.QueueLen), lbl)
	c.reg.Gauge(MetricBDDNodes, "Live BDD nodes per worker.", "worker").Set(float64(v.BDDNodes), lbl)
	c.reg.Gauge(MetricWorkerGCPauseP99, "p99 BDD GC stop-the-world pause per worker (fleet sampler).", "worker").
		Set(float64(v.GCPauseP99Micros)/1e6, lbl)
	c.reg.Gauge(MetricWorkerRSS, "Resident set size per worker process (fleet sampler).", "worker").Set(float64(v.RSSBytes), lbl)
	c.reg.Gauge(MetricWorkerHeap, "Go heap in use per worker process (fleet sampler).", "worker").Set(float64(v.HeapBytes), lbl)
	c.reg.Gauge(MetricWorkerGoroutines, "Goroutines per worker process (fleet sampler).", "worker").Set(float64(v.Goroutines), lbl)
}

// stragglerGauge is the per-worker straggler score family.
func (c *Controller) stragglerGauge() *obs.Gauge {
	return c.reg.Gauge(MetricStragglerScore,
		"EWMA of each worker's round-duration excess over the round median (0 = keeping pace).",
		"worker")
}

// forgetSlots drops the per-slot telemetry of a directory that eviction
// just compacted from before slots to after. The straggler scores restart
// (a slot now names another worker, which must not inherit its
// predecessor's score), the vanished slots' series read 0, and the closed
// clients' clock-offset estimators go.
func (c *Controller) forgetSlots(before, after int, closed []*sidecar.RemoteWorker) {
	c.skewMu.Lock()
	for _, cl := range closed {
		delete(c.skews, cl)
	}
	c.skewMu.Unlock()
	c.fleetMu.Lock()
	c.stragglers = nil
	c.fleetMu.Unlock()
	if c.reg == nil {
		return
	}
	g := c.stragglerGauge()
	for id := 0; id < before; id++ {
		g.Set(0, fmt.Sprint(id))
		if id >= after {
			c.setWorkerGauges(id, sidecar.WorkerVitals{})
		}
	}
}

// observeRoundSkew scores one orchestration round's progress skew: each
// worker's duration relative to the round median feeds a per-worker EWMA
// (the straggler score), and the max-minus-median spread becomes the
// per-phase round skew, labelled with the stage the round ran in. Called
// from eachRound on every orchestration round; returns immediately when
// no registry is wired so the hot loop pays one branch.
func (c *Controller) observeRoundSkew(phase string, ids []int, durs []time.Duration) {
	if c.reg == nil || len(durs) < 2 {
		return
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	med := sorted[len(sorted)/2]
	max := sorted[len(sorted)-1]
	skew := max - med

	var worstID int
	var worstScore float64
	scores := make(map[int]float64, len(ids))
	c.fleetMu.Lock()
	if c.stragglers == nil {
		c.stragglers = map[int]float64{}
	}
	for i, d := range durs {
		var inst float64
		if med > 0 {
			inst = float64(d)/float64(med) - 1
			if inst < 0 {
				inst = 0
			}
		}
		id := ids[i]
		score := c.stragglers[id]*(1-stragglerAlpha) + inst*stragglerAlpha
		c.stragglers[id] = score
		scores[id] = score
		if score > worstScore {
			worstScore, worstID = score, id
		}
	}
	c.fleetMu.Unlock()

	c.reg.Gauge(MetricRoundSkew,
		"Per-phase progress skew of the last orchestration round (slowest minus median worker).",
		"phase").Set(skew.Seconds(), phase)
	g := c.stragglerGauge()
	for id, score := range scores {
		g.Set(score, fmt.Sprint(id))
	}
	if med > 0 && max > 2*med && skew > stragglerLogThreshold {
		c.log.LogAttrs(context.Background(), slog.LevelWarn, "straggler detected", obs.Kind("straggler"),
			slog.String("phase", phase), slog.Int("worker", worstID), slog.Duration("skew", skew),
			slog.Float64("ratio", float64(max)/float64(med)), slog.Float64("score", worstScore))
	}
}

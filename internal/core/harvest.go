// Span harvesting: remote workers buffer completed spans in a bounded
// export ring (obs.Tracer in export mode); the controller drains them over
// the PullSpans RPC and merges them into its own trace. Each drain doubles
// as a clock-skew sample — the reply carries the worker's wall clock, and
// the Dapper/NTP midpoint of the request's send/receive timestamps estimates
// the offset to apply before the remote spans land on the controller's
// timeline. Harvests piggyback on stage boundaries (EndShard, ComputeDP,
// query finish), run periodically in the background for long stages, drain
// one final time in Close, and make a bounded best-effort capture — spans
// plus the last flight-recorder page — from workers about to be evicted.

package core

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"time"

	"s2/internal/fault"
	"s2/internal/obs"
	"s2/internal/sidecar"
)

// harvestBatch bounds one PullSpans round trip; the drain loop keeps going
// while the worker reports more.
const harvestBatch = 2048

// harvestInterval is the background harvester period when no heartbeat
// interval is configured.
const harvestInterval = 5 * time.Second

// evictCapturePolicy bounds the best-effort pull from a worker that just
// failed liveness probing, independent of the transport's policy: it may
// answer (probe raced a stall) or hang, and a hung call would stall the
// whole recovery. The abandoned attempt unblocks when evict closes the
// client.
var evictCapturePolicy = fault.Policy{Timeout: time.Second}

// skewFor returns (creating on demand) the clock-offset estimator for one
// remote client. Keyed by client identity, not worker index: eviction
// compacts the directory, and an estimator must follow its connection.
func (c *Controller) skewFor(client *sidecar.RemoteWorker) *obs.SkewEstimator {
	c.skewMu.Lock()
	defer c.skewMu.Unlock()
	e := c.skews[client]
	if e == nil {
		e = &obs.SkewEstimator{}
		c.skews[client] = e
	}
	return e
}

// liveSkew is skewFor for a client still in the directory, else nil. The
// check and the creation happen under the directory lock, so a harvest
// that raced evict cannot bring back an estimator forgetSlots deleted.
func (c *Controller) liveSkew(client *sidecar.RemoteWorker) *obs.SkewEstimator {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	for _, cl := range c.clients {
		if cl == client {
			return c.skewFor(client)
		}
	}
	return nil
}

// HarvestSpans drains every remote worker's span export ring into the
// controller's tracer now. Safe to call at any time (the exporter ring and
// the worker-side PullSpans handler are lock-cheap and phase-independent);
// a no-op in local mode, where in-process workers share the tracer.
func (c *Controller) HarvestSpans() { c.harvestAll() }

func (c *Controller) harvestAll() {
	if c.tracer == nil {
		return
	}
	c.wmu.RLock()
	workers := append([]sidecar.WorkerAPI(nil), c.workers...)
	clients := append([]*sidecar.RemoteWorker(nil), c.clients...)
	c.wmu.RUnlock()
	for i := range workers {
		if i < len(clients) && clients[i] != nil {
			c.harvestWorker(workers[i], clients[i])
		}
	}
}

// harvestWorker drains one worker's ring to empty, feeding the skew
// estimator from every round trip and ingesting with the best offset so
// far. Errors are swallowed: harvesting is telemetry, never a run failure.
func (c *Controller) harvestWorker(w sidecar.WorkerAPI, client *sidecar.RemoteWorker) {
	var est *obs.SkewEstimator
	for {
		sent := time.Now()
		reply, err := w.PullSpans(sidecar.PullSpansRequest{Max: harvestBatch})
		received := time.Now()
		if err != nil {
			return
		}
		if e := c.liveSkew(client); e != nil {
			est = e
			est.Observe(sent, received, reply.NowUnixMicro)
		}
		if reply.Dropped > 0 {
			c.log.LogAttrs(context.Background(), slog.LevelDebug, "worker export ring dropped spans",
				obs.Kind("harvest"), slog.Uint64("dropped", reply.Dropped), slog.String("addr", client.Addr()))
		}
		c.tracer.Ingest(reply.Spans, est.Offset())
		if !reply.More {
			return
		}
	}
}

// evictCapture makes one bounded attempt per dying worker to pull its
// remaining spans and last flight page before the connection closes. The
// flight page is preserved as an "evict:worker<N>" span attribute in the
// controller's trace — post-mortem evidence that survives the eviction.
func (c *Controller) evictCapture(dead []int) {
	if c.tracer == nil {
		return
	}
	c.wmu.RLock()
	workers := append([]sidecar.WorkerAPI(nil), c.workers...)
	clients := append([]*sidecar.RemoteWorker(nil), c.clients...)
	c.wmu.RUnlock()
	for _, id := range dead {
		if id >= len(workers) || id >= len(clients) || clients[id] == nil {
			continue
		}
		var reply sidecar.PullSpansReply
		err := fault.NewCaller(evictCapturePolicy, nil).Do("PullSpans", false, func() error {
			var err error
			reply, err = workers[id].PullSpans(sidecar.PullSpansRequest{Max: 2 * harvestBatch, WithFlight: true})
			return err
		})
		if err != nil {
			c.log.LogAttrs(context.Background(), slog.LevelDebug, "worker unreachable, trace tail lost", obs.Kind("evict"),
				slog.Int("worker", id))
			continue
		}
		est := c.skewFor(clients[id])
		c.tracer.Ingest(reply.Spans, est.Offset())
		span := c.tracer.Start(fmt.Sprintf("evict:worker%d", id),
			obs.Int("worker", id),
			obs.Int("spans_salvaged", len(reply.Spans)))
		if len(reply.Flight) > 0 {
			span.SetAttr("flight", marshalFlight(reply.Flight))
		}
		span.End()
		c.log.LogAttrs(context.Background(), slog.LevelDebug, "worker trace tail salvaged", obs.Kind("evict"),
			slog.Int("worker", id), slog.Int("spans", len(reply.Spans)), slog.Int("flight_events", len(reply.Flight)))
	}
}

// startHarvester launches the periodic background drain for remote runs
// with tracing: long convergence stages would otherwise overflow the
// workers' export rings before the next stage-boundary harvest.
func (c *Controller) startHarvester() {
	if c.tracer == nil || len(c.opts.WorkerAddrs) == 0 || c.harvestStop != nil {
		return
	}
	interval := c.opts.HeartbeatInterval
	if interval <= 0 {
		interval = harvestInterval
	}
	c.harvestStop = make(chan struct{})
	stop := c.harvestStop
	c.harvestWG.Add(1)
	go func() {
		defer c.harvestWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.harvestAll()
			}
		}
	}()
}

func (c *Controller) stopHarvester() {
	if c.harvestStop == nil {
		return
	}
	close(c.harvestStop)
	c.harvestWG.Wait()
	c.harvestStop = nil
}

// marshalFlight renders captured flight events as compact JSON for storage
// in a span attribute.
func marshalFlight(events []obs.FlightEvent) string {
	b, err := json.Marshal(events)
	if err != nil {
		return "[]"
	}
	return string(b)
}

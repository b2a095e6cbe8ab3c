package fault

import (
	"s2/internal/route"
	"s2/internal/sidecar"
)

// Wrap returns a WorkerAPI that routes every call through the Caller, so
// the controller gets uniform deadlines and retries whether the underlying
// transport is a RemoteWorker, an in-process core.Worker, or an Injector.
// The idempotency table mirrors sidecar.RemoteWorker: only calls that are
// reads or that fully reset the state they establish are retried.
func Wrap(api sidecar.WorkerAPI, c *Caller) sidecar.WorkerAPI {
	return &wrapped{api: api, c: c}
}

type wrapped struct {
	api sidecar.WorkerAPI
	c   *Caller
}

func (w *wrapped) Ping() error {
	return w.c.Do("Ping", true, w.api.Ping)
}

func (w *wrapped) Setup(req sidecar.SetupRequest) error {
	return w.c.Do("Setup", true, func() error { return w.api.Setup(req) })
}

func (w *wrapped) BeginShard(req sidecar.BeginShardRequest) error {
	return w.c.Do("BeginShard", true, func() error { return w.api.BeginShard(req) })
}

func (w *wrapped) GatherBGP() error {
	return w.c.Do("GatherBGP", false, w.api.GatherBGP)
}

func (w *wrapped) ApplyBGP() (sidecar.ApplyReply, error) {
	var reply sidecar.ApplyReply
	err := w.c.Do("ApplyBGP", false, func() error {
		var err error
		reply, err = w.api.ApplyBGP()
		return err
	})
	return reply, err
}

func (w *wrapped) GatherOSPF() error {
	return w.c.Do("GatherOSPF", false, w.api.GatherOSPF)
}

func (w *wrapped) ApplyOSPF() (sidecar.ApplyReply, error) {
	var reply sidecar.ApplyReply
	err := w.c.Do("ApplyOSPF", false, func() error {
		var err error
		reply, err = w.api.ApplyOSPF()
		return err
	})
	return reply, err
}

func (w *wrapped) EndShard() (sidecar.EndShardReply, error) {
	var reply sidecar.EndShardReply
	err := w.c.Do("EndShard", false, func() error {
		var err error
		reply, err = w.api.EndShard()
		return err
	})
	return reply, err
}

func (w *wrapped) PullBGPBatch(reqs []sidecar.PullBGPRequest) ([]sidecar.PullBGPReply, error) {
	var replies []sidecar.PullBGPReply
	err := w.c.Do("PullBGPBatch", true, func() error {
		var err error
		replies, err = w.api.PullBGPBatch(reqs)
		return err
	})
	return replies, err
}

func (w *wrapped) PullLSABatch(reqs []sidecar.PullLSAsRequest) ([]sidecar.PullLSAsReply, error) {
	var replies []sidecar.PullLSAsReply
	err := w.c.Do("PullLSABatch", true, func() error {
		var err error
		replies, err = w.api.PullLSABatch(reqs)
		return err
	})
	return replies, err
}

func (w *wrapped) ApplyDelta(req sidecar.DeltaRequest) (sidecar.DeltaReply, error) {
	var reply sidecar.DeltaReply
	err := w.c.Do("ApplyDelta", true, func() error {
		var err error
		reply, err = w.api.ApplyDelta(req)
		return err
	})
	return reply, err
}

func (w *wrapped) ComputeDP() (sidecar.ComputeDPReply, error) {
	var reply sidecar.ComputeDPReply
	err := w.c.Do("ComputeDP", true, func() error {
		var err error
		reply, err = w.api.ComputeDP()
		return err
	})
	return reply, err
}

func (w *wrapped) BeginQueryBatch(req sidecar.QueryBatchRequest) error {
	return w.c.Do("BeginQueryBatch", true, func() error { return w.api.BeginQueryBatch(req) })
}

func (w *wrapped) Inject(req sidecar.InjectRequest) error {
	return w.c.Do("Inject", false, func() error { return w.api.Inject(req) })
}

func (w *wrapped) DPRound() error {
	return w.c.Do("DPRound", false, w.api.DPRound)
}

func (w *wrapped) HasWork() (bool, error) {
	var busy bool
	err := w.c.Do("HasWork", true, func() error {
		var err error
		busy, err = w.api.HasWork()
		return err
	})
	return busy, err
}

func (w *wrapped) DeliverBatch(req sidecar.DeliverBatchRequest) (sidecar.DeliverBatchReply, error) {
	var reply sidecar.DeliverBatchReply
	err := w.c.Do("DeliverBatch", false, func() error {
		var err error
		reply, err = w.api.DeliverBatch(req)
		return err
	})
	return reply, err
}

func (w *wrapped) FinishQuery() (sidecar.OutcomeBatch, error) {
	var out sidecar.OutcomeBatch
	err := w.c.Do("FinishQuery", false, func() error {
		var err error
		out, err = w.api.FinishQuery()
		return err
	})
	return out, err
}

func (w *wrapped) CollectRIBs() (map[string][]*route.Route, error) {
	var routes map[string][]*route.Route
	err := w.c.Do("CollectRIBs", true, func() error {
		var err error
		routes, err = w.api.CollectRIBs()
		return err
	})
	return routes, err
}

func (w *wrapped) Stats() (sidecar.WorkerStats, error) {
	var st sidecar.WorkerStats
	err := w.c.Do("Stats", true, func() error {
		var err error
		st, err = w.api.Stats()
		return err
	})
	return st, err
}

func (w *wrapped) PullSpans(req sidecar.PullSpansRequest) (sidecar.PullSpansReply, error) {
	var reply sidecar.PullSpansReply
	err := w.c.Do("PullSpans", true, func() error {
		var err error
		reply, err = w.api.PullSpans(req)
		return err
	})
	return reply, err
}

func (w *wrapped) PullStats(req sidecar.PullStatsRequest) (sidecar.PullStatsReply, error) {
	var reply sidecar.PullStatsReply
	err := w.c.Do("PullStats", true, func() error {
		var err error
		reply, err = w.api.PullStats(req)
		return err
	})
	return reply, err
}

func (w *wrapped) PullProfile(req sidecar.PullProfileRequest) (sidecar.PullProfileReply, error) {
	var reply sidecar.PullProfileReply
	err := w.c.Do("PullProfile", true, func() error {
		var err error
		reply, err = w.api.PullProfile(req)
		return err
	})
	return reply, err
}

var _ sidecar.WorkerAPI = (*wrapped)(nil)

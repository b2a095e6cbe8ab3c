package sidecar

import (
	"s2/internal/bgp"
	"s2/internal/ospf"
	"s2/internal/route"
)

// methodClass is what every layer of the worker call stack needs to know
// about one WorkerAPI method.
type methodClass struct {
	// idempotent calls are safe to retry. Phase mutations (Gather*/Apply*/
	// EndShard/DPRound/DeliverBatch/FinishQuery) are not: a timed-out
	// attempt may still have executed remotely, and running one twice breaks
	// the round barrier or double-applies a delivery's substrate splice, so
	// recovery for those is re-execution from a clean re-Setup.
	// Setup/BeginShard/BeginQueryBatch fully reset the state they establish,
	// ApplyDelta's swap is deterministic from the request and its purges are
	// idempotent, and the rest are reads — including the batch pulls, since
	// serving a pull never mutates exporter state.
	idempotent bool
	// phase calls are issued by the controller, serialized per worker, and
	// open the worker-side phase span; only they carry the one-shot trace
	// parent. Probes run concurrently with phases and peer traffic parents
	// via the read-only trace source, so neither may disturb span parenting.
	phase bool
	// telemetry calls drain the worker's own telemetry. The RPC hook skips
	// them: recording the span drain would mint a span per harvest that the
	// harvest then ships, and the vitals sampler would pollute what it reads.
	telemetry bool
}

// methods is the one table of WorkerAPI methods, keyed by Go method name
// (which is also the RPC name and the fault-plan method name).
var methods = map[string]methodClass{
	"Ping":            {idempotent: true},
	"Setup":           {idempotent: true, phase: true},
	"BeginShard":      {idempotent: true, phase: true},
	"GatherBGP":       {phase: true},
	"ApplyBGP":        {phase: true},
	"GatherOSPF":      {phase: true},
	"ApplyOSPF":       {phase: true},
	"EndShard":        {phase: true},
	"PullBGPBatch":    {idempotent: true},
	"PullLSABatch":    {idempotent: true},
	"ApplyDelta":      {idempotent: true, phase: true},
	"ComputeDP":       {idempotent: true, phase: true},
	"BeginQueryBatch": {idempotent: true, phase: true},
	"DPRound":         {phase: true},
	"HasWork":         {idempotent: true},
	"DeliverBatch":    {},
	"FinishQuery":     {phase: true},
	"CollectRIBs":     {idempotent: true},
	"Stats":           {idempotent: true},
	"PullSpans":       {idempotent: true, telemetry: true},
	"PullStats":       {idempotent: true, telemetry: true},
}

// Idempotent reports whether method is safe to retry.
func Idempotent(method string) bool { return methods[method].idempotent }

// PhaseClass reports whether method is a controller-phase call, the only
// kind that propagates a one-shot trace parent.
func PhaseClass(method string) bool { return methods[method].phase }

// Intercept returns a WorkerAPI that hands every call on api to ic, together
// with its method name; ic decides whether, when and how often to run it.
// It is the one decorator of the worker surface: fault injection, RPC
// telemetry and the fault policy are each an interceptor on top of it.
func Intercept(api WorkerAPI, ic func(method string, call func() error) error) WorkerAPI {
	return &intercepted{api: api, ic: ic}
}

type intercepted struct {
	api WorkerAPI
	ic  func(method string, call func() error) error
}

// result runs fn through ic and hands back what the last attempt returned.
func result[R any](ic func(string, func() error) error, method string, fn func() (R, error)) (R, error) {
	var r R
	err := ic(method, func() error {
		var err error
		r, err = fn()
		return err
	})
	return r, err
}

func (x *intercepted) Ping() error {
	return x.ic("Ping", func() error { return x.api.Ping() })
}

func (x *intercepted) Setup(req SetupRequest) error {
	return x.ic("Setup", func() error { return x.api.Setup(req) })
}

func (x *intercepted) BeginShard(req BeginShardRequest) error {
	return x.ic("BeginShard", func() error { return x.api.BeginShard(req) })
}

func (x *intercepted) GatherBGP() error {
	return x.ic("GatherBGP", func() error { return x.api.GatherBGP() })
}

func (x *intercepted) ApplyBGP() (ApplyReply, error) {
	return result(x.ic, "ApplyBGP", func() (ApplyReply, error) { return x.api.ApplyBGP() })
}

func (x *intercepted) GatherOSPF() error {
	return x.ic("GatherOSPF", func() error { return x.api.GatherOSPF() })
}

func (x *intercepted) ApplyOSPF() (ApplyReply, error) {
	return result(x.ic, "ApplyOSPF", func() (ApplyReply, error) { return x.api.ApplyOSPF() })
}

func (x *intercepted) EndShard() (EndShardReply, error) {
	return result(x.ic, "EndShard", func() (EndShardReply, error) { return x.api.EndShard() })
}

func (x *intercepted) PullBGPBatch(reqs []PullRequest) ([]PullReply[bgp.Advertisement], error) {
	return result(x.ic, "PullBGPBatch", func() ([]PullReply[bgp.Advertisement], error) { return x.api.PullBGPBatch(reqs) })
}

func (x *intercepted) PullLSABatch(reqs []PullRequest) ([]PullReply[*ospf.LSA], error) {
	return result(x.ic, "PullLSABatch", func() ([]PullReply[*ospf.LSA], error) { return x.api.PullLSABatch(reqs) })
}

func (x *intercepted) ApplyDelta(req DeltaRequest) (DeltaReply, error) {
	return result(x.ic, "ApplyDelta", func() (DeltaReply, error) { return x.api.ApplyDelta(req) })
}

func (x *intercepted) ComputeDP() (ComputeDPReply, error) {
	return result(x.ic, "ComputeDP", func() (ComputeDPReply, error) { return x.api.ComputeDP() })
}

func (x *intercepted) BeginQueryBatch(req QueryBatchRequest) error {
	return x.ic("BeginQueryBatch", func() error { return x.api.BeginQueryBatch(req) })
}

func (x *intercepted) DPRound() error {
	return x.ic("DPRound", func() error { return x.api.DPRound() })
}

func (x *intercepted) HasWork() (bool, error) {
	return result(x.ic, "HasWork", func() (bool, error) { return x.api.HasWork() })
}

func (x *intercepted) DeliverBatch(req DeliverBatchRequest) (DeliverBatchReply, error) {
	return result(x.ic, "DeliverBatch", func() (DeliverBatchReply, error) { return x.api.DeliverBatch(req) })
}

func (x *intercepted) FinishQuery() (OutcomeBatch, error) {
	return result(x.ic, "FinishQuery", func() (OutcomeBatch, error) { return x.api.FinishQuery() })
}

func (x *intercepted) CollectRIBs() (map[string][]*route.Route, error) {
	return result(x.ic, "CollectRIBs", func() (map[string][]*route.Route, error) { return x.api.CollectRIBs() })
}

func (x *intercepted) Stats() (WorkerStats, error) {
	return result(x.ic, "Stats", func() (WorkerStats, error) { return x.api.Stats() })
}

func (x *intercepted) PullSpans(req PullSpansRequest) (PullSpansReply, error) {
	return result(x.ic, "PullSpans", func() (PullSpansReply, error) { return x.api.PullSpans(req) })
}

func (x *intercepted) PullStats(req PullStatsRequest) (PullStatsReply, error) {
	return result(x.ic, "PullStats", func() (PullStatsReply, error) { return x.api.PullStats(req) })
}

// ObserveTraced runs every call on api through hook, except the telemetry
// methods. When api (the layer below, normally the RemoteWorker transport)
// can carry a trace parent, each phase call arms it with the context of the
// rpc span the hook just opened, so the server-side span parents under this
// exact call. fault.Wrap sits outside, so each retry re-enters the hook and
// re-arms with its own fresh attempt span. A nil hook returns api unchanged.
func ObserveTraced(api WorkerAPI, hook TraceHook) WorkerAPI {
	if hook == nil {
		return api
	}
	carrier, _ := api.(traceCarrier)
	return Intercept(api, func(method string, call func() error) error {
		if methods[method].telemetry {
			return call()
		}
		tc, done := hook(method)
		if tc.Valid() && carrier != nil && PhaseClass(method) {
			carrier.SetNextTraceParent(tc)
		}
		err := call()
		done(err)
		return err
	})
}

// traceCarrier is the one-shot trace-parent slot. ObserveTraced arms the
// transport below it (RemoteWorker for the wire, core.Worker in-process, so
// both yield the same parenting), and Service arms the worker it serves with
// the context a phase call carried in.
type traceCarrier interface {
	SetNextTraceParent(tc TraceContext)
}

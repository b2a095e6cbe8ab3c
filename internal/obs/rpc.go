package obs

import (
	"time"
)

// Standard RPC metric names. role distinguishes the controller's calls
// into workers ("client"), a worker's sidecar serving calls ("server"),
// and a worker's own calls into peer sidecars ("peer").
const (
	MetricRPCCalls   = "s2_rpc_calls_total"
	MetricRPCLatency = "s2_rpc_latency_seconds"
	MetricRPCBytes   = "s2_rpc_bytes_total"
)

// RPCInstrument builds a begin-hook for one RPC role: calling it with a
// method name records the in-flight RPC and returns the rpc span's
// TraceContext plus the completion func that commits count, latency, and
// the span. parent, when non-nil, names the span each RPC should nest under
// (sampled at call start, so RPCs land inside the stage that issued them);
// a client transport stamps the returned context onto the outgoing request,
// parenting the server-side span under this exact call. extra attrs (e.g.
// the target worker id) are stamped on every rpc span, which is what lets
// the attribution report pivot client RPC cost per worker. Returns nil when
// there is nothing to record — callers skip wrapping entirely.
func RPCInstrument(reg *Registry, role string, parent func() *Span, extra ...Attr) func(method string) (TraceContext, func(error)) {
	if reg == nil && parent == nil {
		return nil
	}
	calls := reg.Counter(MetricRPCCalls,
		"RPCs issued or served, by role, method, and outcome.",
		"role", "method", "code")
	latency := reg.Histogram(MetricRPCLatency,
		"RPC wall-clock latency in seconds, by role and method.",
		nil, "role", "method")
	return func(method string) (TraceContext, func(error)) {
		start := time.Now()
		var span *Span
		if parent != nil {
			attrs := append([]Attr{String("role", role)}, extra...)
			span = parent().Child("rpc:"+method, attrs...)
		}
		return span.TC(), func(err error) {
			d := time.Since(start)
			code := "ok"
			if err != nil {
				code = "error"
				span.SetAttr("error", err.Error())
			}
			calls.Inc(role, method, code)
			latency.Observe(d.Seconds(), role, method)
			span.End()
		}
	}
}

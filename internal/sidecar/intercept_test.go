package sidecar

import (
	"reflect"
	"testing"
)

// TestInterceptPassesMethodNames calls every WorkerAPI method on an
// intercepted nil API: the interceptor must see exactly that method's name
// (a copy-paste slip in intercept.go would hand it another), and every name
// must have a row in the method table.
func TestInterceptPassesMethodNames(t *testing.T) {
	var seen []string
	api := Intercept(nil, func(method string, _ func() error) error {
		seen = append(seen, method)
		return nil
	})
	typ := reflect.TypeOf((*WorkerAPI)(nil)).Elem()
	v := reflect.ValueOf(api)
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		fn := v.MethodByName(name)
		args := make([]reflect.Value, fn.Type().NumIn())
		for j := range args {
			args[j] = reflect.Zero(fn.Type().In(j))
		}
		seen = seen[:0]
		fn.Call(args)
		if len(seen) != 1 || seen[0] != name {
			t.Errorf("%s reached the interceptor as %v", name, seen)
		}
		if _, ok := methods[name]; !ok {
			t.Errorf("%s has no row in the method table", name)
		}
	}
	if len(methods) != typ.NumMethod() {
		t.Errorf("method table has %d rows for %d WorkerAPI methods", len(methods), typ.NumMethod())
	}
}

// TestIdempotent pins the retry-safety column: phase mutations and packet
// deliveries must never be retried.
func TestIdempotent(t *testing.T) {
	for m, want := range map[string]bool{
		"Ping": true, "Setup": true, "BeginShard": true,
		"PullBGPBatch": true, "PullLSABatch": true, "ApplyDelta": true,
		"ComputeDP": true, "BeginQueryBatch": true, "HasWork": true,
		"CollectRIBs": true, "Stats": true,
		"PullSpans": true, "PullStats": true,
		"GatherBGP": false, "ApplyBGP": false, "GatherOSPF": false,
		"ApplyOSPF": false, "EndShard": false,
		"DPRound": false, "DeliverBatch": false, "FinishQuery": false,
		"Bogus": false,
	} {
		if got := Idempotent(m); got != want {
			t.Errorf("Idempotent(%s) = %v, want %v", m, got, want)
		}
	}
}

// traceRecorder is a WorkerAPI that also carries a trace parent, recording
// which calls armed it.
type traceRecorder struct {
	WorkerAPI
	armed []TraceContext
}

func (r *traceRecorder) SetNextTraceParent(tc TraceContext) { r.armed = append(r.armed, tc) }

// TestObserveTracedSkipsTelemetry: the hook sees every method but the
// telemetry drains, and only phase calls arm the transport's trace parent.
func TestObserveTracedSkipsTelemetry(t *testing.T) {
	base := &traceRecorder{WorkerAPI: Intercept(nil, func(string, func() error) error { return nil })}
	var hooked []string
	tc := TraceContext{TraceID: 1, SpanID: 2}
	api := ObserveTraced(base, func(method string) (TraceContext, func(error)) {
		hooked = append(hooked, method)
		return tc, func(error) {}
	})
	api.Ping()
	api.GatherBGP()
	api.DeliverBatch(DeliverBatchRequest{})
	api.PullSpans(PullSpansRequest{})
	api.PullStats(PullStatsRequest{})
	if want := []string{"Ping", "GatherBGP", "DeliverBatch"}; !reflect.DeepEqual(hooked, want) {
		t.Errorf("hooked %v, want %v", hooked, want)
	}
	if len(base.armed) != 1 || base.armed[0] != tc {
		t.Errorf("armed %v, want one parent from GatherBGP", base.armed)
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"s2/internal/metrics"
	"s2/internal/obs"
	"s2/internal/sidecar"
)

// TestStageClock: a cold run times each stage once, and the stage's rounds
// charge its critical path, which a stage's wall time bounds. Setup runs no
// charged round. The attribution report's ctrl row reads the same record,
// so it is filled on a controller built without a tracer.
func TestStageClock(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{Workers: 2, Shards: 2, Seed: 1})
	defer c.Close()
	runFull(t, c)
	stages := c.Stages()
	for _, name := range []string{metrics.StageCPBGP, metrics.StageDPCompute, metrics.StageDPForward} {
		if st := stages[name]; st.Critical <= 0 || st.Critical > st.Wall || st.Runs < 1 {
			t.Errorf("%s: %+v, want 0 < critical <= wall", name, st)
		}
	}
	if st := stages[metrics.StageSetup]; st.Wall <= 0 || st.Critical != 0 {
		t.Errorf("setup: %+v, want wall > 0 and critical 0", st)
	}
	rep := c.AttributionReport()
	for _, name := range []string{metrics.StageSetup, metrics.StageCPBGP, metrics.StageDPCompute, metrics.StageDPForward} {
		if rep.Controller[name].Micros <= 0 {
			t.Errorf("untraced ctrl row %s = %+v, want micros > 0", name, rep.Controller[name])
		}
	}
}

// TestTraceThreeWorkerRun is the tentpole acceptance check: a three-worker
// run with tracing enabled must produce a valid Chrome trace with
// controller stage spans, per-worker shard spans, and RPC spans whose
// parent/child nesting is time-consistent.
func TestTraceThreeWorkerRun(t *testing.T) {
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		Workers: 3, Shards: 2, Seed: 1,
		Tracer: tracer, Metrics: reg,
	})
	defer c.Close()
	res := runFull(t, c)
	if len(res.Unreached) != 0 || len(res.Violations) != 0 {
		t.Fatalf("traced run must still verify: unreached=%v violations=%v", res.Unreached, res.Violations)
	}

	events := tracer.Events()
	if len(events) == 0 {
		t.Fatal("traced run produced no events")
	}
	byID := map[string]obs.TraceEvent{}
	names := map[string]int{}
	shardPIDs := map[int]bool{}
	rpcSpans := 0
	for _, e := range events {
		byID[e.Args["span"]] = e
		names[e.Name]++
		if e.Name == "shard" {
			shardPIDs[e.PID] = true
		}
		if strings.HasPrefix(e.Name, "rpc:") {
			rpcSpans++
		}
	}
	for _, stage := range []string{"stage:setup", "stage:cp-bgp", "stage:dp-compute", "stage:dp-forward"} {
		if names[stage] == 0 {
			t.Errorf("missing controller stage span %q; have %v", stage, names)
		}
	}
	// Two shards on three workers: every worker opens one shard span per
	// shard round it participates in, on its own pid lane.
	if len(shardPIDs) < 2 {
		t.Errorf("shard spans on %d pid lanes, want >= 2 workers: %v", len(shardPIDs), shardPIDs)
	}
	if rpcSpans == 0 {
		t.Error("no rpc spans recorded")
	}
	// Every child is time-contained in its parent and shares its lane.
	for _, e := range events {
		p, ok := e.Args["parent"]
		if !ok {
			continue
		}
		pe, ok := byID[p]
		if !ok {
			t.Fatalf("span %s (%q) has unknown parent %s", e.Args["span"], e.Name, p)
		}
		if e.TS < pe.TS || e.TS+e.Dur > pe.TS+pe.Dur {
			t.Errorf("span %q [%d,%d] escapes parent %q [%d,%d]",
				e.Name, e.TS, e.TS+e.Dur, pe.Name, pe.TS, pe.TS+pe.Dur)
		}
		if e.TID != pe.TID {
			t.Errorf("span %q tid %d != parent %q tid %d", e.Name, e.TID, pe.Name, pe.TID)
		}
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid Chrome trace JSON: %v", err)
	}
	if len(f.TraceEvents) != len(events) {
		t.Fatalf("JSON round-trip lost events: %d vs %d", len(f.TraceEvents), len(events))
	}

	// The shared registry saw the run too: convergence iterations, route
	// exchanges, client RPC latencies, and per-worker modelled memory.
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		MetricCPIterations + `{protocol="bgp"}`,
		MetricRoutesExchanged,
		MetricModelMemory + `{worker="0",kind="current"}`,
		obs.MetricRPCLatency + `_bucket{role="client",method="ApplyBGP"`,
		obs.MetricRPCCalls + `{role="client",method="ApplyBGP",code="ok"}`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("registry exposition missing %q", want)
		}
	}
	if err := checkPromText(text.String()); err != nil {
		t.Fatalf("unparseable exposition: %v\n%s", err, text.String())
	}
}

// TestMetricsEndpointLiveWorker mirrors cmd/s2worker: a TCP worker with a
// process-local registry, server-side RPC hook, and a live /metrics
// endpoint that must expose RPC latency histograms, route-exchange
// counters, and modelled-memory gauges in parseable Prometheus text.
func TestMetricsEndpointLiveWorker(t *testing.T) {
	reg := obs.NewRegistry()
	w := NewWorker()
	w.SetObservability(nil, reg)
	srv := sidecar.NewServer(w)
	srv.SetRPCHook(obs.RPCInstrument(reg, "server", nil))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go srv.Serve(lis)

	isrv, err := obs.ServeIntrospection("127.0.0.1:0", obs.ServerOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer isrv.Close()

	// Second worker keeps the run distributed (cross-worker route pulls).
	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis2.Close()
	go sidecar.Serve(NewWorker(), lis2)

	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		WorkerAddrs: []string{lis.Addr().String(), lis2.Addr().String()},
		Shards:      2, Seed: 7,
	})
	res := runFull(t, c)
	if len(res.Unreached) != 0 || len(res.Violations) != 0 {
		t.Fatalf("run failed: unreached=%v violations=%v", res.Unreached, res.Violations)
	}

	resp, err := http.Get("http://" + isrv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE " + obs.MetricRPCLatency + " histogram",
		obs.MetricRPCLatency + `_bucket{role="server",method="ApplyBGP"`,
		obs.MetricRPCLatency + `_count{role="server",method="Setup"}`,
		MetricRoutesExchanged + `{worker="0",protocol="bgp"}`,
		MetricModelMemory + `{worker="0",kind="peak"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if err := checkPromText(text); err != nil {
		t.Fatalf("unparseable /metrics body: %v\n%s", err, text)
	}
}

// TestObsDisabledAddsNothing is the zero-cost claim: with no tracer and no
// registry the controller wires no hooks, the workers carry no obs handle,
// and the run neither spawns nor leaks goroutines for observability.
func TestObsDisabledAddsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{Workers: 3, Shards: 2, Seed: 1})
	if c.tracer != nil || c.reg != nil {
		t.Fatal("obs handles must stay nil when unset")
	}
	if c.clientHook != nil {
		t.Fatal("client RPC hook must stay nil when obs is off")
	}
	for _, w := range c.locals {
		if w.obs != nil {
			t.Fatal("workers must carry no obs handle when unset")
		}
	}
	res := runFull(t, c)
	if len(res.Unreached) != 0 || len(res.Violations) != 0 {
		t.Fatalf("run failed: unreached=%v violations=%v", res.Unreached, res.Violations)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Goroutines settle after Close; poll briefly before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d with observability off", before, after)
	}
	// Progress stays readable (zero value) even with obs off.
	if p := c.Progress(); p.Stage == "" && p.RoutesSettled == 0 {
		// Stage is set by stage() even without a tracer; a fully zero view
		// would mean the progress plumbing is gated on obs by mistake.
		t.Errorf("progress view empty after a run: %+v", p)
	}
}

// checkPromText is a minimal Prometheus text-format validator: every series
// line must be `name{labels} value` with a parseable float, and every
// series must belong to a TYPE-declared family.
func checkPromText(text string) error {
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			return fmt.Errorf("line %d: empty", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE", ln+1)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(name, suffix); fam != name && typed[fam] {
				base = fam
			}
		}
		if !typed[base] {
			return fmt.Errorf("line %d: series %q lacks a TYPE declaration", ln+1, name)
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("line %d: no value", ln+1)
		}
		var f float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &f); err != nil {
			return fmt.Errorf("line %d: bad value %q", ln+1, fields[len(fields)-1])
		}
	}
	return nil
}

package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("root", Int("worker", 1))
	if s != nil {
		t.Fatalf("nil tracer must hand out nil spans")
	}
	c := s.Child("child")
	c.SetAttr("k", "v")
	c.SetWorker(3)
	c.End()
	s.End()
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer events = %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil tracer must still write valid trace JSON: %v", err)
	}

	var reg *Registry
	reg.Counter("c", "h").Inc()
	reg.Gauge("g", "h").Set(1)
	reg.Histogram("h", "h", nil).Observe(1)
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if snap := reg.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v", snap)
	}
	if hook := RPCInstrument(nil, "client", nil); hook != nil {
		t.Fatalf("RPCInstrument with nothing to record must return nil")
	}
}

func TestTracerHierarchy(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("stage:cp").SetWorker(-1)
	child := root.Child("shard", Int("shard", 0))
	grand := child.Child("rpc:GatherBGP")
	time.Sleep(2 * time.Millisecond)
	grand.End()
	child.End()
	root.End()
	// End before export; unended spans are not exported.
	tr.Start("dangling")

	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	byID := map[string]TraceEvent{}
	for _, e := range events {
		byID[e.Args["span"]] = e
	}
	for _, e := range events {
		p, ok := e.Args["parent"]
		if !ok {
			continue
		}
		pe, ok := byID[p]
		if !ok {
			t.Fatalf("span %s has unknown parent %s", e.Args["span"], p)
		}
		if e.TS < pe.TS || e.TS+e.Dur > pe.TS+pe.Dur {
			t.Errorf("span %q [%d,%d] not nested in parent %q [%d,%d]",
				e.Name, e.TS, e.TS+e.Dur, pe.Name, pe.TS, pe.TS+pe.Dur)
		}
		if e.TID != pe.TID {
			t.Errorf("span %q tid %d != parent tid %d (children must share the root lane)", e.Name, e.TID, pe.TID)
		}
	}
	if byID["2"].Args["shard"] != "0" {
		t.Errorf("attr shard missing: %v", byID["2"].Args)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(f.TraceEvents) != 3 {
		t.Fatalf("round-trip lost events: %d", len(f.TraceEvents))
	}
	if f.TraceEvents[0].Ph != "X" {
		t.Errorf("want complete events, got ph=%q", f.TraceEvents[0].Ph)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.Child(fmt.Sprintf("w%d", i))
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(tr.Events()); got != 33 {
		t.Fatalf("got %d events, want 33", got)
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("s2_routes_exchanged_total", "Routes pulled.", "worker")
	c.Add(5, "0")
	c.Inc("1")
	g := reg.Gauge("s2_model_memory_bytes", "Modelled memory.", "worker", "kind")
	g.Set(1024, "0", "current")
	g.SetFunc(func() float64 { return 4096 }, "0", "peak")
	h := reg.Histogram("s2_rpc_latency_seconds", "Latency.", []float64{0.001, 1}, "method")
	h.Observe(0.0005, "Ping")
	h.Observe(0.5, "Ping")
	h.Observe(2.0, "Ping")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE s2_routes_exchanged_total counter",
		`s2_routes_exchanged_total{worker="0"} 5`,
		`s2_routes_exchanged_total{worker="1"} 1`,
		"# TYPE s2_model_memory_bytes gauge",
		`s2_model_memory_bytes{worker="0",kind="current"} 1024`,
		`s2_model_memory_bytes{worker="0",kind="peak"} 4096`,
		"# TYPE s2_rpc_latency_seconds histogram",
		`s2_rpc_latency_seconds_bucket{method="Ping",le="0.001"} 1`,
		`s2_rpc_latency_seconds_bucket{method="Ping",le="1"} 2`,
		`s2_rpc_latency_seconds_bucket{method="Ping",le="+Inf"} 3`,
		`s2_rpc_latency_seconds_count{method="Ping"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in exposition:\n%s", want, text)
		}
	}
	if err := checkPrometheusText(text); err != nil {
		t.Fatalf("unparseable exposition: %v\n%s", err, text)
	}

	snap := reg.Snapshot()
	if snap[`s2_routes_exchanged_total{worker="0"}`] != 5 {
		t.Errorf("snapshot: %v", snap)
	}
	if snap[`s2_rpc_latency_seconds_count{method="Ping"}`] != 3 {
		t.Errorf("snapshot histogram count: %v", snap)
	}
}

// checkPrometheusText is a minimal validator of the text exposition format:
// every non-comment line must be `name{labels} value` with a parseable
// float value, and every series must be preceded by a TYPE comment.
func checkPrometheusText(text string) error {
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			return fmt.Errorf("line %d: empty", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: bad TYPE", ln+1)
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
			return fmt.Errorf("line %d: series %q lacks TYPE", ln+1, name)
		}
		fields := strings.Fields(line)
		var val string
		if len(fields) < 2 {
			return fmt.Errorf("line %d: no value", ln+1)
		}
		val = fields[len(fields)-1]
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			return fmt.Errorf("line %d: bad value %q", ln+1, val)
		}
	}
	return nil
}

func TestRPCInstrument(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer()
	stage := tr.Start("stage:cp")
	hook := RPCInstrument(reg, "client", func() *Span { return stage })
	if hook == nil {
		t.Fatal("hook must be non-nil with a registry")
	}
	_, done := hook("GatherBGP")
	done(nil)
	_, done = hook("ApplyBGP")
	done(errors.New("boom"))
	stage.End()

	if got := reg.Counter(MetricRPCCalls, "", "role", "method", "code").Get("client", "GatherBGP", "ok"); got != 1 {
		t.Errorf("ok count = %v", got)
	}
	if got := reg.Counter(MetricRPCCalls, "", "role", "method", "code").Get("client", "ApplyBGP", "error"); got != 1 {
		t.Errorf("error count = %v", got)
	}
	if got := reg.Histogram(MetricRPCLatency, "", nil, "role", "method").Count("client", "GatherBGP"); got != 1 {
		t.Errorf("latency count = %v", got)
	}
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want stage + 2 rpc spans", len(events))
	}
	var sawErr bool
	for _, e := range events {
		if e.Name == "rpc:ApplyBGP" && e.Args["error"] == "boom" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Errorf("rpc error span missing: %v", events)
	}
}

func TestServeIntrospection(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("s2_test_total", "test").Inc()
	srv, err := ServeIntrospection("127.0.0.1:0", ServerOptions{
		Registry: reg,
		Health:   func() any { return map[string]string{"worker": "alive"} },
		Progress: func() any { return map[string]int{"round": 7} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "s2_test_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body := get("/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	var health struct {
		Status string         `json:"status"`
		Detail map[string]any `json:"detail"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil || health.Status != "ok" || health.Detail["worker"] != "alive" {
		t.Errorf("/healthz body = %q (%v)", body, err)
	}
	code, body = get("/progress")
	var prog map[string]int
	if code != 200 || json.Unmarshal([]byte(body), &prog) != nil || prog["round"] != 7 {
		t.Errorf("/progress = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof = %d", code)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func toyEnv(seed int64) env {
	return env{seed: seed, window: 150 * time.Millisecond, sz: toySizes}
}

// runToy runs one workload at toy size and returns its printed output and
// result line.
func runToy(t *testing.T, wl workload, traced bool, traceOut string) (string, resultLine) {
	t.Helper()
	var buf bytes.Buffer
	if err := runOne(&buf, wl, toyEnv(1), traced, traceOut); err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	line, err := lastLine(buf.Bytes())
	if err != nil {
		t.Fatalf("%s: %v\n%s", wl.name, err, buf.String())
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s: %d of %d operations failed\n%s", wl.name, line.Failed, line.Attempted, buf.String())
	}
	return buf.String(), line
}

// Every workload, untraced: every end-to-end metric is reported, with its
// unit, and none is zero.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, wl := range workloads {
		_, line := runToy(t, wl, false, "")
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", wl.name, len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %+v (reported %t), want a positive value in %s", wl.name, d.Name, m, ok, d.Unit)
			}
		}
	}
}

// Every workload, traced: every per-layer metric is reported, the layers
// the workload was chosen for did work, and the spans come out as Chrome
// trace_event JSON.
func TestWorkloadsTraced(t *testing.T) {
	busy := map[string][]string{
		"fattree-cold-allpairs": {"cp_s", "dp_compute_s", "dp_forward_s", "packets_in", "routes", "bdd_kernel_ops_per_s", "parse_s", "partition_edge_cut"},
		"dcn-cold-tcp-intents":  {"cp_s", "route_pulls", "rpc_calls", "rpc_bytes", "mean_batch_size"},
		"fattree-delta-stream":  {"delta_apply_noop_s", "delta_apply_dp_s", "delta_apply_orig_s", "delta_apply_policy_s", "delta_dp_compute_share", "dirty_shard_ratio"},
		"fattree-query-read":    {"cache_hit_ratio", "passes", "query_pass_s", "serve_self_ms", "epoch_floor_ms"},
		"fattree-query-churn":   {"stalled_share", "delta_apply_orig_s", "cache_hit_ratio"},
	}
	for _, wl := range workloads {
		path := filepath.Join(t.TempDir(), "trace.json")
		text, line := runToy(t, wl, true, path)
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", wl.name, len(line.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v (reported %t), want unit %s", wl.name, d.Name, m, ok, d.Unit)
			}
		}
		for _, name := range busy[wl.name] {
			if !(line.Metrics[name].Value > 0) {
				t.Errorf("%s: %s = %v, want the layer to have done work", wl.name, name, line.Metrics[name].Value)
			}
		}
		if !strings.Contains(text, "self time per layer") {
			t.Errorf("%s: no self-time table in\n%s", wl.name, text)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name, Cat, Ph string
				Dur           float64
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Fatalf("%s: trace file: %v, %d events", wl.name, err, len(trace.TraceEvents))
		}
		for _, ev := range trace.TraceEvents {
			if ev.Ph != "X" || ev.Name == "" || ev.Cat == "" || ev.Dur < 0 {
				t.Fatalf("%s: bad trace event %+v", wl.name, ev)
			}
		}
	}
}

// A wrong answer must count as a failure: the oracles are the point.
func TestOraclesCatchWrongAnswers(t *testing.T) {
	e := toyEnv(1)
	ft, err := genFatTree(e.sz.serveK, e.rng(0), e.sz.serveWithdraw, e.sz.serveBlock)
	if err != nil {
		t.Fatal(err)
	}
	h := ft.healthy()
	var bad string
	for b := range ft.blocked {
		bad = b
	}
	good := query{Src: h[0], Dst: h[1], DstPrefix: ft.prefix[h[1]]}
	lost := query{Src: h[0], Dst: bad, DstPrefix: ft.prefix[bad]}
	if ft.expect(good, nil) == ft.expect(lost, nil) {
		t.Fatal("closed form gives a healthy and a blocked destination the same answer")
	}
	if ft.expect(good, map[string]bool{good.Dst: true}) == ft.expect(good, nil) {
		t.Error("withdrawing a destination by a delta left its closed-form answer alone")
	}
	bf, err := newBatfish(ft.texts)
	if err != nil {
		t.Fatal(err)
	}
	qs := []query{good, lost}
	right := []string{ft.expect(good, nil), ft.expect(lost, nil)}
	if n, err := bf.mismatches(qs, right); err != nil || n != 0 {
		t.Errorf("baseline disagrees with the closed form on %d of 2 (%v)", n, err)
	}
	if n, err := bf.mismatches(qs, []string{right[1], right[0]}); err != nil || n != 2 {
		t.Errorf("baseline let %d of 2 swapped answers through (%v)", 2-n, err)
	}
}

// inputs renders everything the program under test would see for one seed,
// by kind of input.
func inputs(t *testing.T, seed int64) map[string]string {
	t.Helper()
	e := toyEnv(seed)
	sz := e.sz
	out := map[string]string{}
	dump := func(label string, v any) {
		raw, err := json.Marshal(v) // maps marshal with sorted keys
		if err != nil {
			t.Fatal(err)
		}
		out[label] += string(raw)
	}

	cold, err := genFatTree(sz.coldK, e.rng(0), sz.coldWithdraw, sz.coldBlock)
	if err != nil {
		t.Fatal(err)
	}
	dump("cold texts", cold.texts)
	d, err := genDCN(sz.dcn, e.rng(0), sz.dcnWithdraw, sz.dcnIntents)
	if err != nil {
		t.Fatal(err)
	}
	dump("dcn texts", d.texts)
	dump("dcn intents", d.intents)

	ft, err := genFatTree(sz.serveK, e.rng(0), sz.serveWithdraw, sz.serveBlock)
	if err != nil {
		t.Fatal(err)
	}
	dump("serve texts", ft.texts)
	rng := e.rng(1)
	flappers := ft.flappers(rng, sz.flappers)
	dump("intents", ft.intents(rng, sz.intents, flappers))
	gen := ft.newDeltaGen(rng, flappers)
	for i := 0; i < 3; i++ {
		dump("delta script", gen.block())
	}
	rng = e.rng(1)
	dump("flap script", ft.flapScript(rng, 6, ft.flappers(rng, sz.flappers)))
	pool, err := ft.queryPool(e.rng(2), sz.pool)
	if err != nil {
		t.Fatal(err)
	}
	dump("pool", pool)
	for client := 0; client < 2; client++ {
		sched := newSchedule(pool, sz.adhocEvery, seed, client, 2)
		for i := 0; i < 100; i++ {
			q, rank, adhoc := sched.next()
			out["schedule"] += fmt.Sprintf("%+v %d %t\n", q, rank, adhoc)
		}
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	a, again, other := inputs(t, 1), inputs(t, 1), inputs(t, 2)
	for kind, text := range a {
		if text != again[kind] {
			t.Errorf("%s: the same seed gave different inputs", kind)
		}
		if text == other[kind] {
			t.Errorf("%s: seeds 1 and 2 gave the same input", kind)
		}
	}
}

// The ad-hoc cadence is exact and ad-hoc requests never repeat, whatever
// the client count.
func TestScheduleAdhoc(t *testing.T) {
	e := toyEnv(1)
	ft, err := genFatTree(e.sz.serveK, e.rng(0), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ft.queryPool(e.rng(2), e.sz.pool)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[query]bool{}
	for _, q := range pool {
		seen[q] = true
	}
	const clients, requests, every = 3, 700, 7
	for c := 0; c < clients; c++ {
		sched := newSchedule(pool, every, 1, c, clients)
		for i := 1; i <= requests; i++ {
			q, rank, adhoc := sched.next()
			if adhoc != (i%every == 0) {
				t.Fatalf("client %d request %d: adhoc %t", c, i, adhoc)
			}
			if !adhoc {
				if q != pool[rank] {
					t.Fatalf("client %d request %d is not pool[%d]", c, i, rank)
				}
				continue
			}
			if seen[q] {
				t.Fatalf("client %d request %d: ad-hoc %+v was asked before", c, i, q)
			}
			seen[q] = true
		}
	}
}

// BENCHMARK.json repeats the tables of metrics.go and workloads.go for the
// driver; this keeps the two in step.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, the harness has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the harness has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: %+v, the harness has %+v", kind, i, m, d)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v, the harness has %v (at most 0.25)", kind, m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) for these ten values.
	xs := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	q1, q2, q3 := quartiles(xs)
	if q1 != 11.75 || q2 != 14.5 || q3 != 17.25 {
		t.Errorf("quartiles %v %v %v, want 11.75 14.5 17.25", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-5.5/14.5) > 1e-12 {
		t.Errorf("spread %v, want %v", got, 5.5/14.5)
	}
}

func TestVerdictsBySlice(t *testing.T) {
	// Three slices of 10 ms; the middle one is hit by a burst and the
	// median slice is not.
	var samples []sample
	for i := 0; i < 30; i++ {
		took := time.Millisecond
		if i/10 == 1 {
			took = 50 * time.Millisecond
		}
		samples = append(samples, sample{at: time.Duration(i) * time.Millisecond, took: took})
	}
	samples = append(samples, sample{at: 31 * time.Millisecond, took: time.Second}) // beyond the window
	o := newOutcome()
	tails := o.verdictsBySlice(samples, 10*time.Millisecond, 3, 0.99)
	if len(tails) != 3 || o.e2e["verdict_p50_ms"] != 1 || o.e2e["verdict_tail_ms"] != 1 || o.e2e["verdicts_per_s"] != 1000 {
		t.Errorf("tails %v, metrics %v", tails, o.e2e)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "core", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Layer: "core", Start: 40 * ms, End: 70 * ms}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "bdd", Start: 20 * ms, End: 30 * ms},
		{ID: 5, Parent: 1, Layer: "serve", Start: 90 * ms, End: -1}, // never ended
	}}
	want := map[string][2]time.Duration{
		"bench": {100 * ms, 40 * ms}, // children cover 10..70
		"core":  {70 * ms, 60 * ms},
		"bdd":   {10 * ms, 10 * ms},
	}
	rows := tr.selfTimes()
	if len(rows) != len(want) {
		t.Fatalf("rows %+v", rows)
	}
	for _, r := range rows {
		if w := want[r.Layer]; r.Total != w[0] || r.Self != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", r.Layer, r.Total, r.Self, w[0], w[1])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "verdict_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "verdicts_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(mid float64) []float64 {
		return []float64{mid * 0.99, mid, mid * 1.01, mid, mid * 0.995, mid * 1.005, mid, mid, mid, mid}
	}
	noisy := []float64{70, 130, 100, 80, 120, 100, 60, 140, 100, 100}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(115), "regressed"},
		{lower, steady(100), steady(50), "ok"},
		{higher, steady(100), steady(85), "regressed"},
		{higher, steady(100), steady(130), "ok"},
		{lower, steady(100), noisy, "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, median(c.a), median(c.b), got, c.want)
		}
	}

	// End to end through files: a regression makes --compare fail.
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		set := resultSet{Header: newHeader(1, 1)}
		for i := 0; i < 10; i++ {
			set.Runs = append(set.Runs, setRun{Workload: workloads[0].name, Seed: int64(i), resultLine: resultLine{
				Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metricValue{"verdict_p50_ms": {Value: p50 + float64(i)*0.01, Unit: "ms"}},
			}})
		}
		raw, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	slower := 100 * (1 + 2*endToEnd[1].Bound) // verdict_p50_ms, twice its bound worse
	a, same, slow, wrong := write("a.json", 100, 0), write("same.json", 101, 0), write("slow.json", slower, 0), write("wrong.json", 100, 1)
	var out bytes.Buffer
	if err := compareSets(&out, a, same); err != nil {
		t.Errorf("A/A compare: %v\n%s", err, out.String())
	}
	if err := compareSets(&out, a, slow); err == nil || !strings.Contains(err.Error(), "verdict_p50_ms") {
		t.Errorf("a median twice the bound slower passed: %v", err)
	}
	if err := compareSets(&out, a, wrong); err == nil || !strings.Contains(err.Error(), "failed_share") {
		t.Errorf("a risen failed share passed: %v", err)
	}
}

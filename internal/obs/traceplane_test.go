package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPrometheusLabelEscaping(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // exact escaped form between the quotes
	}{
		{"plain", "GatherBGP", "GatherBGP"},
		{"backslash", `C:\temp`, `C:\\temp`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"mixed", "a\\\"b\nc", `a\\\"b\nc`},
		{"tab passes raw", "a\tb", "a\tb"},
		{"unicode passes raw", "héllo", "héllo"},
		{"trailing backslash", `dir\`, `dir\\`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			writeEscapedLabelValue(&b, tc.in)
			if b.String() != tc.want {
				t.Errorf("escape(%q) = %q, want %q", tc.in, b.String(), tc.want)
			}
			// The escaped value must round-trip through the full exposition.
			reg := NewRegistry()
			reg.Counter("s2_escape_test_total", "h", "method").Inc(tc.in)
			var buf strings.Builder
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf(`s2_escape_test_total{method="%s"} 1`, tc.want)
			if !strings.Contains(buf.String(), want) {
				t.Errorf("exposition missing %q:\n%s", want, buf.String())
			}
			// A raw newline in a label value would split the series line.
			for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				if !strings.HasPrefix(line, "s2_escape_test_total") {
					t.Errorf("stray exposition line %q (unescaped newline?)", line)
				}
			}
		})
	}
}

// TestSpanAttrRace hammers SetAttr against End and Events under -race: attrs
// commit under the tracer lock, and the exporter snapshots them under the
// same lock, so none of these interleavings may trip the race detector.
func TestSpanAttrRace(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		s := tr.Start(fmt.Sprintf("span%d", i))
		wg.Add(3)
		go func(s *Span) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.SetAttr("k", "v")
			}
		}(s)
		go func(s *Span) {
			defer wg.Done()
			s.End()
		}(s)
		go func() {
			defer wg.Done()
			tr.Events()
			tr.WriteChromeTrace(io.Discard)
		}()
	}
	wg.Wait()
	// Same hammer in export mode, where End serializes attrs into the ring.
	tr.startExport(64)
	for i := 0; i < 8; i++ {
		s := tr.Start(fmt.Sprintf("export%d", i))
		wg.Add(3)
		go func(s *Span) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.SetAttr("k", "v")
			}
		}(s)
		go func(s *Span) {
			defer wg.Done()
			s.End()
		}(s)
		go func() {
			defer wg.Done()
			tr.DrainExport(16)
		}()
	}
	wg.Wait()
}

func TestIntrospectionContentTypes(t *testing.T) {
	fr := newFlightRecorder(8)
	fr.Logger(nil).LogAttrs(bg, slog.LevelInfo, "hello 1", Kind("test"))
	srv, err := ServeIntrospection("127.0.0.1:0", ServerOptions{
		Registry: NewRegistry(),
		Progress: func() any { return map[string]int{"round": 3} },
		Flight:   fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	for path, wantCT := range map[string]string{
		"/metrics":              "text/plain; version=0.0.4; charset=utf-8",
		"/healthz":              "application/json; charset=utf-8",
		"/progress":             "application/json; charset=utf-8",
		"/debug/flightrecorder": "application/json; charset=utf-8",
	} {
		resp, body := get(path)
		if resp.StatusCode != 200 {
			t.Errorf("%s = %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != wantCT {
			t.Errorf("%s Content-Type = %q, want %q", path, got, wantCT)
		}
		if strings.HasPrefix(wantCT, "application/json") {
			var v any
			if err := json.Unmarshal(body, &v); err != nil {
				t.Errorf("%s body not valid JSON: %v\n%s", path, err, body)
			}
		}
	}

	_, body := get("/progress")
	var prog map[string]int
	if err := json.Unmarshal(body, &prog); err != nil || prog["round"] != 3 {
		t.Errorf("/progress = %q (%v)", body, err)
	}
	_, body = get("/debug/flightrecorder")
	var dump struct {
		Total  uint64        `json:"total"`
		Events []FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(body, &dump); err != nil || len(dump.Events) != 1 || dump.Events[0].Kind != "test" {
		t.Errorf("/debug/flightrecorder = %q (%v)", body, err)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	var nilFR *FlightRecorder
	nilFR.Logger(nil).Info("never")
	if nilFR.Events() != nil || nilFR.Total() != 0 {
		t.Fatal("nil recorder must be inert")
	}

	fr := newFlightRecorder(4)
	l := fr.Logger(nil)
	for i := 0; i < 10; i++ {
		l.LogAttrs(bg, slog.LevelDebug, fmt.Sprintf("event %d", i), Kind("phase"))
	}
	if fr.Total() != 10 {
		t.Errorf("total = %d, want 10", fr.Total())
	}
	ev := fr.Events()
	if len(ev) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(ev))
	}
	for i, e := range ev {
		want := fmt.Sprintf("event %d", 6+i) // oldest-first, last 4 of 10
		if e.Msg != want || e.Kind != "phase" {
			t.Errorf("event[%d] = %q/%q, want msg %q", i, e.Kind, e.Msg, want)
		}
		if e.UnixMicro == 0 {
			t.Errorf("event[%d] missing timestamp", i)
		}
	}
	if page := fr.Page(2); len(page) != 2 || page[1].Msg != "event 9" {
		t.Errorf("Page(2) = %v", page)
	}
	var sb strings.Builder
	fr.WriteTo(&sb)
	if !strings.Contains(sb.String(), "event 9") {
		t.Errorf("WriteTo missing newest event:\n%s", sb.String())
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := newFlightRecorder(32)
	l := fr.Logger(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.LogAttrs(bg, slog.LevelDebug, "tick", Kind("k"), slog.Int("g", g), slog.Int("i", i))
			}
		}(g)
		go func() {
			defer wg.Done()
			fr.Events()
			fr.Page(4)
		}()
	}
	wg.Wait()
	if fr.Total() != 400 {
		t.Errorf("total = %d, want 400", fr.Total())
	}
}

func TestSkewEstimator(t *testing.T) {
	var nilEst *SkewEstimator
	nilEst.Observe(time.Now(), time.Now(), 1)
	if nilEst.Offset() != 0 || nilEst.Samples() != 0 {
		t.Fatal("nil estimator must be inert")
	}

	est := &SkewEstimator{}
	base := time.Unix(1000, 0)
	// Remote clock runs 2s behind: at local midpoint base+5ms the remote
	// reads base-2s+5ms.
	sent, recv := base, base.Add(10*time.Millisecond)
	remote := base.Add(-2 * time.Second).Add(5 * time.Millisecond).UnixMicro()
	est.Observe(sent, recv, remote)
	if got := est.Offset(); got != 2*time.Second {
		t.Errorf("offset = %v, want 2s", got)
	}
	// A noisier (bigger-RTT) sample with a wildly different implied offset
	// must not displace the min-RTT estimate.
	est.Observe(base, base.Add(500*time.Millisecond), base.UnixMicro())
	if got := est.Offset(); got != 2*time.Second {
		t.Errorf("offset after noisy sample = %v, want 2s", got)
	}
	// A quieter sample wins.
	sent2 := base.Add(time.Second)
	remote2 := sent2.Add(-3 * time.Second).Add(time.Millisecond).UnixMicro()
	est.Observe(sent2, sent2.Add(2*time.Millisecond), remote2)
	if got := est.Offset(); got != 3*time.Second {
		t.Errorf("offset after better sample = %v, want 3s", got)
	}
	if est.Samples() != 3 {
		t.Errorf("samples = %d, want 3", est.Samples())
	}
}

func TestExportRingAndIngest(t *testing.T) {
	remote := NewTracer()
	remote.startExport(4)
	remote.EnsureIDBase(1 << 40)

	// Six spans through a ring of four: the two oldest drop.
	for i := 0; i < 6; i++ {
		s := remote.Start(fmt.Sprintf("phase%d", i)).SetWorker(2)
		s.End()
	}
	spans, dropped, more := remote.DrainExport(3)
	if len(spans) != 3 || dropped != 2 || !more {
		t.Fatalf("drain = %d spans, %d dropped, more=%v; want 3, 2, true", len(spans), dropped, more)
	}
	rest, dropped, more := remote.DrainExport(10)
	if len(rest) != 1 || dropped != 0 || more {
		t.Fatalf("second drain = %d spans, %d dropped, more=%v; want 1, 0, false", len(rest), dropped, more)
	}
	for _, d := range append(spans, rest...) {
		if d.ID <= 1<<40 {
			t.Errorf("span id %d not in the claimed range", d.ID)
		}
		if d.PID != 3 {
			t.Errorf("span pid = %d, want worker lane 3", d.PID)
		}
	}

	// Ingest onto a local tracer with a known offset; the merged events
	// surface via Events like native spans.
	local := NewTracer()
	root := local.Start("rpc:EndShard")
	time.Sleep(time.Millisecond)
	root.End()
	local.Ingest(append(spans, rest...), 250*time.Millisecond)
	events := local.Events()
	if len(events) != 5 {
		t.Fatalf("merged trace has %d events, want 5", len(events))
	}
	names := map[string]bool{}
	for _, e := range events {
		names[e.Name] = true
	}
	for _, want := range []string{"rpc:EndShard", "phase2", "phase5"} {
		if !names[want] {
			t.Errorf("merged trace missing %q: %v", want, names)
		}
	}
}

// TestRemoteParenting verifies the cross-process span tree: a remote span
// started from a propagated TraceContext parents under the originating span
// and shares its lane after ingestion, and the clamp keeps the child inside
// the parent's interval no matter the offset error.
func TestRemoteParenting(t *testing.T) {
	ctrl := NewTracer()
	rpcSpan := ctrl.Start("rpc:GatherBGP")

	worker := NewTracer()
	worker.startExport(16)
	worker.EnsureIDBase(1 << 40)
	remote := worker.StartRemote("gather-bgp", rpcSpan.TC()).SetWorker(0)
	time.Sleep(2 * time.Millisecond)
	remote.End()
	time.Sleep(time.Millisecond)
	rpcSpan.End()

	spans, _, _ := worker.DrainExport(16)
	// A deliberately bad offset: the clamp must still contain the child.
	ctrl.Ingest(spans, 5*time.Second)

	events := ctrl.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	byName := map[string]TraceEvent{}
	for _, e := range events {
		byName[e.Name] = e
	}
	parent, child := byName["rpc:GatherBGP"], byName["gather-bgp"]
	if child.Args["parent"] != parent.Args["span"] {
		t.Errorf("child parent=%q, want %q", child.Args["parent"], parent.Args["span"])
	}
	if child.TID != parent.TID {
		t.Errorf("child tid=%d, parent tid=%d; remote span must join the caller's lane", child.TID, parent.TID)
	}
	if child.TS < parent.TS || child.TS+child.Dur > parent.TS+parent.Dur {
		t.Errorf("child [%d,%d] overshoots parent [%d,%d] despite clamp",
			child.TS, child.TS+child.Dur, parent.TS, parent.TS+parent.Dur)
	}
	if child.PID != 1 {
		t.Errorf("child pid = %d, want 1 (worker 0 lane)", child.PID)
	}
}

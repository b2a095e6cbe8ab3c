package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHistoryRing(t *testing.T) {
	h := newHistory(4)
	base := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		h.Record(base.Add(time.Duration(i)*time.Second), map[string]float64{
			"a": float64(i),
			"b": float64(i * 10),
		})
	}
	if h.Rounds() != 6 {
		t.Errorf("rounds = %d, want 6", h.Rounds())
	}
	pts := h.Series("a", 0)
	if len(pts) != 4 {
		t.Fatalf("len(series a) = %d, want 4 (capacity)", len(pts))
	}
	// Oldest-first after wrap: samples 2,3,4,5.
	for i, p := range pts {
		if p.Value != float64(i+2) {
			t.Errorf("pts[%d].Value = %v, want %d", i, p.Value, i+2)
		}
	}
	if pts[0].UnixMilli >= pts[3].UnixMilli {
		t.Error("points not in ascending time order")
	}
	// max trims to the newest points, still oldest-first.
	last2 := h.Series("b", 2)
	if len(last2) != 2 || last2[0].Value != 40 || last2[1].Value != 50 {
		t.Errorf("Series(b, 2) = %v, want [40 50]", last2)
	}
	if latest, ok := h.Latest("a"); !ok || latest.Value != 5 {
		t.Errorf("Latest(a) = %v %v, want 5 true", latest, ok)
	}
	if names := h.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names() = %v, want [a b]", names)
	}
	dump := h.Dump(3)
	if len(dump["a"]) != 3 || dump["a"][2].Value != 5 {
		t.Errorf("Dump(3)[a] = %v, want newest 3 ending at 5", dump["a"])
	}
	if h.Series("missing", 0) != nil {
		t.Error("unknown series must return nil")
	}
}

func TestHistoryNilAndDisabled(t *testing.T) {
	var h *History
	h.Record(time.Now(), map[string]float64{"a": 1})
	if h.Series("a", 0) != nil || h.Names() != nil || h.Rounds() != 0 || h.Dump(1) != nil {
		t.Error("nil history must be inert")
	}
	if _, ok := h.Latest("a"); ok {
		t.Error("nil history Latest must report absence")
	}
	stop := h.Start(time.Millisecond, func() map[string]float64 { return nil })
	stop() // must not panic
}

func TestHistoryStart(t *testing.T) {
	h := newHistory(16)
	stop := h.Start(time.Millisecond, func() map[string]float64 {
		return map[string]float64{"x": 1}
	})
	deadline := time.Now().Add(2 * time.Second)
	for h.Rounds() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	rounds := h.Rounds()
	if rounds < 3 {
		t.Fatalf("sampler recorded %d rounds, want >= 3", rounds)
	}
	time.Sleep(5 * time.Millisecond)
	if h.Rounds() != rounds {
		t.Error("sampler kept recording after stop")
	}
}

func TestProfileStoreRing(t *testing.T) {
	var nilStore *ProfileStore
	if id := nilStore.Add(&Profile{}); id != "" {
		t.Error("nil store Add must return empty id")
	}
	if nilStore.Get("p000001") != nil || nilStore.Profiles() != nil || nilStore.Len() != 0 {
		t.Error("nil store must be inert")
	}

	s := newProfileStore(2)
	id1 := s.Add(&Profile{Worker: 0, Kind: "cpu", Data: []byte{1}})
	id2 := s.Add(&Profile{Worker: 1, Kind: "heap", Data: []byte{2, 2}})
	id3 := s.Add(&Profile{Worker: 2, Kind: "cpu", Data: []byte{3, 3, 3}})
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if s.Get(id1) != nil {
		t.Error("oldest profile must be evicted FIFO")
	}
	if p := s.Get(id3); p == nil || p.Bytes != 3 || p.Worker != 2 {
		t.Errorf("Get(%s) = %+v, want worker 2 with 3 bytes", id3, s.Get(id3))
	}
	list := s.Profiles()
	if len(list) != 2 || list[0].ID != id3 || list[1].ID != id2 {
		t.Errorf("Profiles() order = %v, want newest-first [%s %s]", list, id3, id2)
	}
	if added, evicted := s.Stats(); added != 3 || evicted != 1 {
		t.Errorf("stats = %d added %d evicted, want 3/1", added, evicted)
	}
}

// readSSEFrames collects n "data:" frames from a live SSE stream.
func readSSEFrames(t *testing.T, body *bufio.Scanner, n int) []dashFrame {
	t.Helper()
	var out []dashFrame
	for body.Scan() && len(out) < n {
		line := body.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f dashFrame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		out = append(out, f)
	}
	return out
}

func TestDashboardSSEAndHTML(t *testing.T) {
	h := newHistory(32)
	for i := 0; i < 6; i++ {
		h.Record(time.Now(), map[string]float64{"s2_queries_total": float64(i)})
	}
	d := &Dashboard{
		Health:  func() any { return map[string]any{"epoch": 7} },
		History: h,
	}
	srv := httptest.NewServer(d)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := func() ([]byte, error) {
		defer resp.Body.Close()
		buf := make([]byte, 1<<16)
		n, _ := resp.Body.Read(buf)
		return buf[:n], nil
	}()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content-type = %q, want text/html", ct)
	}
	if !strings.Contains(string(page), "fleet dashboard") {
		t.Error("HTML page missing dashboard markup")
	}

	stream, err := http.Get(srv.URL + "?stream=1&interval=250")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	frames := readSSEFrames(t, bufio.NewScanner(stream.Body), 2)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
	if frames[1].Seq <= frames[0].Seq {
		t.Errorf("seq must advance: %d then %d", frames[0].Seq, frames[1].Seq)
	}
	if frames[0].Rounds < 5 {
		t.Errorf("frame rounds = %d, want the 6 recorded samples", frames[0].Rounds)
	}
	pts := frames[0].Series["s2_queries_total"]
	if len(pts) < 5 {
		t.Errorf("sparkline series has %d points, want >= 5", len(pts))
	}
}

func TestDashboardNilDisabled(t *testing.T) {
	mux := http.NewServeMux()
	RegisterFleetHandlers(mux, nil, nil, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("nil dashboard: status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/debug/profile?worker=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("nil pull: status = %d, want 501", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/debug/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Profiles []*Profile `json:"profiles"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Profiles) != 0 {
		t.Errorf("nil store listing: err=%v profiles=%v, want empty list", err, list.Profiles)
	}
}

func TestFleetProfileEndpoints(t *testing.T) {
	store := newProfileStore(4)
	pull := func(worker int, kind string, seconds int) (*Profile, error) {
		if kind != "cpu" && kind != "heap" {
			return nil, fmt.Errorf("unknown kind %q", kind)
		}
		p := &Profile{Worker: worker, Kind: kind, Taken: time.Now(), Data: []byte{0x1f, 0x8b, 9}}
		store.Add(p)
		return p, nil
	}
	mux := http.NewServeMux()
	RegisterFleetHandlers(mux, nil, store, pull)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// GET is rejected; POST triggers a pull.
	resp, _ := http.Get(srv.URL + "/debug/profile?worker=1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /debug/profile: status = %d, want 405", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/debug/profile?worker=1&kind=heap", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Profile
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || got.Worker != 1 || got.Kind != "heap" || got.ID == "" {
		t.Fatalf("pull reply = %+v (err %v), want stored worker-1 heap profile", got, err)
	}
	resp, _ = http.Post(srv.URL+"/debug/profile?worker=0&kind=bogus", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("bad kind: status = %d, want 502", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/debug/profile?worker=-2", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative worker: status = %d, want 400", resp.StatusCode)
	}

	// The stored profile downloads as raw bytes.
	resp, err = http.Get(srv.URL + "/debug/profiles/" + got.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 16)
	n, _ := resp.Body.Read(raw)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || n != 3 || raw[0] != 0x1f {
		t.Errorf("download = status %d, %d bytes % x", resp.StatusCode, n, raw[:n])
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, got.ID) {
		t.Errorf("Content-Disposition %q missing profile id", cd)
	}
	resp, _ = http.Get(srv.URL + "/debug/profiles/nope")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status = %d, want 404", resp.StatusCode)
	}
}

func TestRegisterProcessVitals(t *testing.T) {
	RegisterProcessVitals(nil) // must not panic

	reg := NewRegistry()
	RegisterProcessVitals(reg)
	RegisterProcessVitals(reg) // idempotent
	snap := reg.Snapshot()
	if snap[MetricGoroutines] < 1 {
		t.Errorf("%s = %v, want >= 1", MetricGoroutines, snap[MetricGoroutines])
	}
	if v, ok := snap[MetricGCCPUFraction]; !ok || v < 0 || v > 1 {
		t.Errorf("%s = %v ok=%v, want [0,1]", MetricGCCPUFraction, v, ok)
	}
	// /proc is linux-only; accept the -1 fallback but require the gauge.
	if v, ok := snap[MetricOpenFDs]; !ok || (v < 1 && v != -1) {
		t.Errorf("%s = %v ok=%v", MetricOpenFDs, v, ok)
	}
}

// Satellite coverage for the clock-offset estimator's edges: the first
// sample always sets the offset, remote-ahead clocks yield negative
// offsets, and an equal-RTT later sample must NOT displace the first
// (strict < wins, so ties keep the established estimate).
func TestSkewEstimatorEdgeCases(t *testing.T) {
	base := time.Unix(2000, 0)

	t.Run("single sample", func(t *testing.T) {
		est := &SkewEstimator{}
		sent := base
		rtt := 4 * time.Millisecond
		remote := base.Add(-1 * time.Second).Add(2 * time.Millisecond).UnixMicro()
		est.Observe(sent, sent.Add(rtt), remote)
		if est.Samples() != 1 {
			t.Fatalf("samples = %d, want 1", est.Samples())
		}
		if got := est.Offset(); got != time.Second {
			t.Errorf("offset = %v, want 1s", got)
		}
	})

	t.Run("negative offset when remote runs ahead", func(t *testing.T) {
		est := &SkewEstimator{}
		sent := base
		// Remote clock 3s ahead of the local midpoint.
		remote := base.Add(3 * time.Second).Add(5 * time.Millisecond).UnixMicro()
		est.Observe(sent, sent.Add(10*time.Millisecond), remote)
		if got := est.Offset(); got != -3*time.Second {
			t.Errorf("offset = %v, want -3s", got)
		}
	})

	t.Run("min-RTT tie keeps first sample", func(t *testing.T) {
		est := &SkewEstimator{}
		rtt := 6 * time.Millisecond
		remote1 := base.Add(-2 * time.Second).Add(3 * time.Millisecond).UnixMicro()
		est.Observe(base, base.Add(rtt), remote1)
		// Same RTT, wildly different implied offset: must not win.
		sent2 := base.Add(time.Second)
		remote2 := sent2.Add(40 * time.Second).UnixMicro()
		est.Observe(sent2, sent2.Add(rtt), remote2)
		if got := est.Offset(); got != 2*time.Second {
			t.Errorf("offset after tie = %v, want first sample's 2s", got)
		}
		if est.Samples() != 2 {
			t.Errorf("samples = %d, want 2 (tie still counted)", est.Samples())
		}
	})

	t.Run("rejects zero remote stamp and negative rtt", func(t *testing.T) {
		est := &SkewEstimator{}
		est.Observe(base, base.Add(time.Millisecond), 0)
		est.Observe(base, base.Add(-time.Millisecond), base.UnixMicro())
		if est.Samples() != 0 {
			t.Errorf("samples = %d, want 0 (both samples invalid)", est.Samples())
		}
	})
}

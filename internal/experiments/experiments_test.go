package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// The figure runners are exercised at Quick() scale; assertions target the
// qualitative shapes the paper reports, not absolute numbers.

func TestFigure4Shapes(t *testing.T) {
	rows, err := Figure4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.System+"/"+r.Variant] = r
	}
	vanilla := byKey["batfish/no-shard"]
	if !vanilla.OOM {
		t.Errorf("vanilla batfish should OOM on the DCN (paper Fig. 4): %+v", vanilla)
	}
	sharded := byKey["batfish+shard/4-shards"]
	if !sharded.OK {
		t.Errorf("batfish+sharding should finish: %+v", sharded)
	}
	s2full := byKey["s2-4w/4-shards"]
	if !s2full.OK {
		t.Errorf("s2 should finish: %+v", s2full)
	}
	// S2's per-worker peak is far below the centralized peak.
	if s2full.PeakBytes >= sharded.PeakBytes {
		t.Errorf("s2 peak %d should be < batfish+shard peak %d", s2full.PeakBytes, sharded.PeakBytes)
	}
}

func TestFigure5Shapes(t *testing.T) {
	rows, err := Figure5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Batfish fits the small size, OOMs beyond the calibration size...
	// at Quick scale {4,6} calibration is on k=6, so both sizes fit; the
	// series must exist for all three systems at each size.
	systems := map[string]int{}
	for _, r := range rows {
		systems[r.System]++
	}
	for _, sys := range []string{"batfish", "bonsai", "s2-1w", "s2-4w"} {
		if systems[sys] == 0 {
			t.Errorf("missing system %s in %v", sys, systems)
		}
	}
	// S2 with more workers never has a higher per-worker peak.
	peaks := map[string]map[string]int64{}
	for _, r := range rows {
		if peaks[r.Network] == nil {
			peaks[r.Network] = map[string]int64{}
		}
		peaks[r.Network][r.System] = r.PeakBytes
	}
	for net, m := range peaks {
		if m["s2-4w"] > 0 && m["s2-1w"] > 0 && m["s2-4w"] >= m["s2-1w"] {
			t.Errorf("%s: s2-4w peak %d should be < s2-1w peak %d", net, m["s2-4w"], m["s2-1w"])
		}
	}
}

func TestFigure6Shapes(t *testing.T) {
	rows, err := Figure6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Peak memory decreases with workers.
	for i := 1; i < len(rows); i++ {
		if rows[i].PeakBytes >= rows[i-1].PeakBytes {
			t.Errorf("peak should fall with more workers: %v then %v",
				rows[i-1].PeakBytes, rows[i].PeakBytes)
		}
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("row failed: %+v", r)
		}
	}
}

func TestFigure7Shapes(t *testing.T) {
	rows, err := Figure7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// 5 schemes × 2 networks; all verify successfully.
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	peaks := map[string]int64{}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("scheme %s on %s failed: %s", r.Variant, r.Network, r.Err)
		}
		if r.Network == "FatTree4" {
			peaks[r.Variant] = r.PeakBytes
		}
	}
	// The imbalanced extreme has the worst peak (its heavy worker holds
	// 3/4 of the switches).
	for _, scheme := range []string{"random", "expert", "metis"} {
		if peaks["imbalanced"] <= peaks[scheme] {
			t.Errorf("imbalanced peak %d should exceed %s peak %d",
				peaks["imbalanced"], scheme, peaks[scheme])
		}
	}
}

func TestFigure8Shapes(t *testing.T) {
	rows, err := Figure8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Variant == "no-shard" || r.OK {
			continue
		}
		t.Errorf("sharded run failed: %+v", r)
	}
	// Sharding lowers the peak at every size.
	byNet := map[string]map[string]Row{}
	for _, r := range rows {
		if byNet[r.Network] == nil {
			byNet[r.Network] = map[string]Row{}
		}
		byNet[r.Network][r.Variant] = r
	}
	for net, m := range byNet {
		noShard, shard := m["no-shard"], m["4-shards"]
		if noShard.OK && shard.OK && shard.PeakBytes >= noShard.PeakBytes {
			t.Errorf("%s: sharding should lower peak (%d vs %d)", net, shard.PeakBytes, noShard.PeakBytes)
		}
	}
}

func TestFigure9Shapes(t *testing.T) {
	rows, err := Figure9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Monotone peak decrease as shards increase; identical route counts.
	for i := 1; i < len(rows); i++ {
		if rows[i].PeakBytes > rows[i-1].PeakBytes {
			t.Errorf("peak should not rise with more shards: %v → %v",
				rows[i-1].PeakBytes, rows[i].PeakBytes)
		}
		if rows[i].Routes != rows[0].Routes {
			t.Errorf("shard count must not change results: %d vs %d routes",
				rows[i].Routes, rows[0].Routes)
		}
	}
}

func TestFigure10Shapes(t *testing.T) {
	rows, err := Figure10(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes × 2 systems × 2 query types.
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("row failed: %+v", r)
		}
		if r.DPCompute == 0 {
			t.Errorf("phase split missing for %s/%s/%s", r.System, r.Network, r.Variant)
		}
	}
}

func TestFormat(t *testing.T) {
	rows := []Row{{
		Figure: "fig5", System: "s2-4w", Network: "FatTree6", Variant: "x",
		Switches: 45, OK: true, PeakBytes: 2048,
	}, {
		Figure: "fig5", System: "batfish", Network: "FatTree6", OOM: true,
	}}
	out := Format(rows)
	for _, want := range []string{"fig5", "s2-4w", "2.0KiB", "OOM", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	if Quick().FixedK != 4 {
		t.Error("Quick config")
	}
	if (Row{TimedOut: true}).Status() != "TIMEOUT" || (Row{}).Status() != "ERR" {
		t.Error("Status")
	}
}

func TestSortRows(t *testing.T) {
	rows := []Row{
		{Network: "b", System: "x"},
		{Network: "a", System: "y"},
		{Network: "a", System: "x", Variant: "2"},
		{Network: "a", System: "x", Variant: "1"},
	}
	sortRows(rows)
	if rows[0].Network != "a" || rows[0].Variant != "1" || rows[3].Network != "b" {
		t.Errorf("sort order: %+v", rows)
	}
}

// The runners wire a registry, which starts the controller's vitals
// sampler; a runner that does not Close its controller leaves that
// goroutine holding the controller and its workers, probing them forever.
func TestRunnersLeaveNoSampler(t *testing.T) {
	_, texts, err := fatTreeSnap(4)
	if err != nil {
		t.Fatal(err)
	}
	p := s2Params{workers: 2, shards: 2, seed: 1, procs: 1}
	for name, run := range map[string]func(map[string]string, s2Params) Row{"runS2": runS2, "runS2CP": runS2CP} {
		if r := run(texts, p); !r.OK {
			t.Fatalf("%s: %+v", name, r)
		}
		if n := samplerGoroutines(); n != 0 {
			t.Errorf("%s left %d vitals sampler goroutines running", name, n)
		}
	}
}

// samplerGoroutines counts the live goroutines running the controller's
// vitals sampler loop.
func samplerGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*Controller).startStatsSampler.func")
		}
		buf = make([]byte, 2*len(buf))
	}
}

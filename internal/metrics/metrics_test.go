package metrics

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTrackerGaugesAndPeak(t *testing.T) {
	tr := NewTracker("w0", 0)
	tr.Set("rib", 100)
	tr.Set("bdd", 50)
	if tr.Current() != 150 || tr.Peak() != 150 {
		t.Fatalf("current=%d peak=%d", tr.Current(), tr.Peak())
	}
	tr.Set("rib", 20)
	if tr.Current() != 70 {
		t.Fatalf("current=%d after lowering gauge", tr.Current())
	}
	if tr.Peak() != 150 {
		t.Fatal("peak must persist")
	}
	tr.Add("bdd", 30)
	if tr.Gauge("bdd") != 80 || tr.Current() != 100 {
		t.Fatal("Add")
	}
	if tr.Name() != "w0" {
		t.Fatal("Name")
	}
}

func TestTrackerBudget(t *testing.T) {
	tr := NewTracker("w1", 100)
	tr.Set("rib", 100)
	if err := tr.CheckBudget(); err != nil {
		t.Fatalf("at budget should pass: %v", err)
	}
	tr.Add("rib", 1)
	err := tr.CheckBudget()
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over budget: %v", err)
	}
	if !strings.Contains(err.Error(), "w1") {
		t.Errorf("error should name the worker: %v", err)
	}
	unlimited := NewTracker("w2", 0)
	unlimited.Set("x", 1<<40)
	if err := unlimited.CheckBudget(); err != nil {
		t.Fatal("unlimited tracker must never OOM")
	}
}

func TestTrackerResetPreservesPeak(t *testing.T) {
	tr := NewTracker("w", 0)
	tr.Set("rib", 500)
	tr.Reset()
	if tr.Current() != 0 {
		t.Fatal("Reset should zero current")
	}
	if tr.Peak() != 500 {
		t.Fatal("Reset must preserve peak")
	}
	tr.Set("rib", 10)
	if tr.Current() != 10 {
		t.Fatal("gauges usable after Reset")
	}
	// Post-Reset additions below the prior high-water mark must not lower
	// the recorded peak — the peak is a run-level maximum, not a per-round
	// one.
	if tr.Peak() != 500 {
		t.Fatalf("Reset-then-Add peak = %d, want prior peak 500", tr.Peak())
	}
	tr.Set("rib", 900)
	if tr.Peak() != 900 {
		t.Fatalf("peak must still rise past the prior maximum: %d", tr.Peak())
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker("w", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.Add("g", 1)
			}
		}(i)
	}
	wg.Wait()
	if tr.Current() != 8000 {
		t.Fatalf("concurrent adds lost updates: %d", tr.Current())
	}
}

func TestSnapshotFormat(t *testing.T) {
	tr := NewTracker("w9", 0)
	tr.Set("rib", 2048)
	s := tr.Snapshot()
	for _, want := range []string{"w9", "rib=2.0KiB", "peak="} {
		if !strings.Contains(s, want) {
			t.Errorf("Snapshot %q missing %q", s, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{1, "1B"},
		{512, "512B"},
		{1023, "1023B"},
		// Exact unit boundaries.
		{1024, "1.0KiB"},
		{1 << 20, "1.0MiB"},
		{1 << 30, "1.0GiB"},
		{1 << 40, "1.0TiB"},
		{1 << 50, "1.0PiB"},
		{1 << 60, "1.0EiB"},
		{1536, "1.5KiB"},
		{3 << 30, "3.0GiB"},
		{5 << 40, "5.0TiB"},
		// Negative deltas mirror the positive rendering.
		{-1, "-1B"},
		{-512, "-512B"},
		{-1024, "-1.0KiB"},
		{-2048, "-2.0KiB"},
		{-(3 << 30), "-3.0GiB"},
		{math.MinInt64 + 1, "-8.0EiB"},
		{math.MinInt64, "-8.0EiB"},
		{math.MaxInt64, "8.0EiB"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.in); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestFaultCounters(t *testing.T) {
	fc := NewFaultCounters()
	fc.Inc("rpc.retries")
	fc.Inc("rpc.retries")
	fc.Add("worker.deaths", 3)
	if fc.Get("rpc.retries") != 2 || fc.Get("worker.deaths") != 3 {
		t.Fatalf("counters: %v", fc.Snapshot())
	}
	if fc.Get("unknown") != 0 {
		t.Fatal("missing counter must read 0")
	}
	snap := fc.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot should hold only non-zero counters: %v", snap)
	}
	snap["rpc.retries"] = 99
	if fc.Get("rpc.retries") != 2 {
		t.Fatal("Snapshot must be a copy")
	}
	s := fc.String()
	for _, want := range []string{"rpc.retries=2", "worker.deaths=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	if strings.Index(s, "rpc.retries") > strings.Index(s, "worker.deaths") {
		t.Errorf("String must sort keys: %q", s)
	}
}

func TestFaultCountersNilSafe(t *testing.T) {
	var fc *FaultCounters
	fc.Inc("x")
	fc.Add("x", 5)
	if fc.Get("x") != 0 {
		t.Fatal("nil counters must read 0")
	}
	if fc.Snapshot() != nil {
		t.Fatal("nil Snapshot")
	}
	if fc.String() != "" {
		t.Fatal("nil String")
	}
}

func TestFaultCountersConcurrent(t *testing.T) {
	fc := NewFaultCounters()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				fc.Inc("n")
			}
		}()
	}
	wg.Wait()
	if fc.Get("n") != 8000 {
		t.Fatalf("lost increments: %d", fc.Get("n"))
	}
}

func TestStageClock(t *testing.T) {
	var sc StageClock
	if stage := sc.ChargeRound(time.Second); stage != "" {
		t.Fatalf("a round outside every stage was charged to %q", stage)
	}
	err := sc.Time("cp", func() error {
		time.Sleep(time.Millisecond)
		if stage := sc.ChargeRound(time.Microsecond); stage != "cp" {
			t.Errorf("round charged to %q, want the open stage cp", stage)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("boom")
	if err := sc.Time("dp", func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatal("Time must propagate errors")
	}
	stages := sc.Snapshot()
	if len(stages) != 2 {
		t.Fatalf("stage count %d, want 2", len(stages))
	}
	if cp := stages["cp"]; cp.Wall < time.Millisecond || cp.Critical != time.Microsecond || cp.Runs != 1 {
		t.Fatalf("cp recorded %+v", cp)
	}
	if dp := stages["dp"]; dp.Critical != 0 || dp.Runs != 1 {
		t.Fatalf("dp recorded %+v", dp)
	}
	// Repeated runs accumulate.
	sc.Time("cp", func() error { time.Sleep(time.Millisecond); return nil })
	if cp := sc.Snapshot()["cp"]; cp.Wall < 2*time.Millisecond || cp.Runs != 2 {
		t.Fatalf("repeated runs should accumulate: %+v", cp)
	}
}

func TestStageClockConcurrent(t *testing.T) {
	var sc StageClock
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sc.Time(fmt.Sprintf("p%d", n%4), func() error {
				time.Sleep(time.Duration(n%3) * time.Millisecond)
				sc.ChargeRound(time.Microsecond)
				return nil
			})
		}(i)
	}
	wg.Wait()
	stages := sc.Snapshot()
	if len(stages) != 4 {
		t.Fatalf("16 calls under 4 names left %d stages", len(stages))
	}
	var sum time.Duration
	runs := 0
	for name, st := range stages {
		if st.Wall < 0 {
			t.Errorf("corrupt total %s = %v", name, st.Wall)
		}
		sum += st.Wall
		runs += st.Runs
	}
	if runs != 16 || sum <= 0 {
		t.Fatalf("%d runs totalling %v, want 16 runs", runs, sum)
	}
	if stage := sc.ChargeRound(time.Second); stage != "" {
		t.Fatalf("stage %q left open after every run returned", stage)
	}
}

// TestStageClockBounded: a resident daemon times every delta and query
// pass; the clock must hold one entry per stage name, not one per call.
func TestStageClockBounded(t *testing.T) {
	var sc StageClock
	names := []string{StageCPBGP, StageDPCompute, StageDPForward}
	for i := 0; i < 10000; i++ {
		sc.Time(names[i%len(names)], func() error { return nil })
	}
	if n := len(sc.Snapshot()); n != len(names) {
		t.Fatalf("10000 calls under %d names left %d entries", len(names), n)
	}
}

package obs

import (
	"testing"
	"time"
)

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

package metrics

import (
	"sync"
	"testing"
	"time"

	"s2/internal/obs"
)

// newDurationQuantiles returns a tracker over the last window samples.
func newDurationQuantiles(window int) *DurationQuantiles {
	return &DurationQuantiles{ring: obs.NewRing[time.Duration](window)}
}

func TestDurationQuantilesEmpty(t *testing.T) {
	q := NewDurationQuantiles()
	if got := q.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	if q.Count() != 0 {
		t.Fatalf("empty count = %d", q.Count())
	}
}

func TestDurationQuantilesNearestRank(t *testing.T) {
	q := newDurationQuantiles(16)
	for i := 1; i <= 10; i++ {
		q.Observe(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		f    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.5, 5 * time.Millisecond},
		{0.99, 10 * time.Millisecond},
		{1, 10 * time.Millisecond},
		{-1, 1 * time.Millisecond},   // clamped
		{2, 10 * time.Millisecond},   // clamped
		{0.25, 3 * time.Millisecond}, // rank round(2.5) = 3rd smallest
	}
	for _, c := range cases {
		if got := q.Quantile(c.f); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.f, got, c.want)
		}
	}
	if q.Count() != 10 {
		t.Fatalf("count = %d, want 10", q.Count())
	}
}

func TestDurationQuantilesEviction(t *testing.T) {
	q := newDurationQuantiles(4)
	// Fill with large values, then push them all out with small ones: the
	// window must forget the old tail entirely.
	for i := 0; i < 4; i++ {
		q.Observe(time.Second)
	}
	for i := 0; i < 4; i++ {
		q.Observe(time.Millisecond)
	}
	if got := q.Quantile(1); got != time.Millisecond {
		t.Fatalf("max after eviction = %v, want 1ms", got)
	}
	if q.Count() != 8 {
		t.Fatalf("count = %d, want 8 (evicted samples still counted)", q.Count())
	}
}

func TestDurationQuantilesConcurrent(t *testing.T) {
	q := newDurationQuantiles(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q.Observe(time.Duration(g*100+i) * time.Microsecond)
				_ = q.Quantile(0.5)
			}
		}(g)
	}
	wg.Wait()
	if q.Count() != 800 {
		t.Fatalf("count = %d, want 800", q.Count())
	}
}

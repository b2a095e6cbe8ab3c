package metrics

import (
	"sort"
	"sync"
	"time"

	"s2/internal/obs"
)

// gcPauseWindow is how many recent samples a DurationQuantiles keeps.
const gcPauseWindow = 512

// DurationQuantiles tracks quantiles over a sliding window of duration
// samples — the worker-side accounting for GC pauses, where the interesting
// figures are the median and tail of *recent* collections, not a lifetime
// mean. The window is a ring of the last 512 samples, so memory is bounded
// no matter how long a serving process runs.
//
// It is safe for concurrent use; Quantile sorts a copy.
type DurationQuantiles struct {
	mu   sync.Mutex
	ring *obs.Ring[time.Duration]
}

// NewDurationQuantiles returns a tracker over the last 512 samples.
func NewDurationQuantiles() *DurationQuantiles {
	return &DurationQuantiles{ring: obs.NewRing[time.Duration](gcPauseWindow)}
}

// Observe records one sample, evicting the oldest when the window is full.
func (q *DurationQuantiles) Observe(d time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ring.Push(d)
}

// Count returns the number of samples observed (including evicted ones).
func (q *DurationQuantiles) Count() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int64(q.ring.Total())
}

// Quantile returns the f-quantile (0 ≤ f ≤ 1, nearest-rank) of the current
// window, or 0 with no samples. f is clamped into [0,1].
func (q *DurationQuantiles) Quantile(f float64) time.Duration {
	q.mu.Lock()
	sorted := q.ring.Last(0)
	q.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	idx := int(f*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

package obs

import (
	"sort"
	"sync"
	"time"
)

// HistPoint is one sample of one series: a wall-clock stamp (milliseconds
// since the epoch, coarse enough for sparklines) and the sampled value.
type HistPoint struct {
	UnixMilli int64   `json:"t"`
	Value     float64 `json:"v"`
}

// historySamples is how many points History keeps per series.
const historySamples = 512

// History is a fixed-capacity time-series ring: the fleet health plane's
// memory. Each named series (typically a registry Snapshot key such as
// "s2_bdd_nodes{worker=\"2\"}") keeps its last 512 points; Record
// appends one sample round across many series at once. A nil *History is
// a valid no-op, so callers wire it unconditionally and the disabled path
// costs nothing.
type History struct {
	mu     sync.Mutex
	cap    int
	series map[string]*Ring[HistPoint]
	rounds uint64
}

// NewHistory returns a history keeping the last 512 points per series.
func NewHistory() *History {
	return &History{cap: historySamples, series: make(map[string]*Ring[HistPoint])}
}

// Record appends one sample round: every entry in sample becomes a point
// stamped at. Series appear on first use.
func (h *History) Record(at time.Time, sample map[string]float64) {
	if h == nil || len(sample) == 0 {
		return
	}
	ms := at.UnixMilli()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rounds++
	for name, v := range sample {
		r := h.series[name]
		if r == nil {
			r = NewRing[HistPoint](h.cap)
			h.series[name] = r
		}
		r.Push(HistPoint{UnixMilli: ms, Value: v})
	}
}

// Series returns the series' points oldest-first (a copy), or nil when the
// series is unknown. max > 0 limits the result to the newest max points.
func (h *History) Series(name string, max int) []HistPoint {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.series[name]
	if r == nil {
		return nil
	}
	return r.Last(max)
}

// Names returns every recorded series name, sorted.
func (h *History) Names() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.series))
	for name := range h.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Latest returns the series' newest point.
func (h *History) Latest(name string) (HistPoint, bool) {
	if h == nil {
		return HistPoint{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.series[name]
	if r == nil {
		return HistPoint{}, false
	}
	return r.At(r.Len() - 1), true
}

// Rounds counts Record calls — the dashboard's "is sampling alive" signal.
func (h *History) Rounds() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rounds
}

// Dump returns the newest max points of every series (oldest-first per
// series) — the dashboard's sparkline payload.
func (h *History) Dump(max int) map[string][]HistPoint {
	if h == nil {
		return nil
	}
	names := h.Names()
	out := make(map[string][]HistPoint, len(names))
	for _, name := range names {
		if pts := h.Series(name, max); len(pts) > 0 {
			out[name] = pts
		}
	}
	return out
}

// Start samples fn into the history every interval until the returned stop
// function runs — the convenience loop for processes (s2worker) that have
// no controller-side sampler driving them. Nil-safe: a nil history starts
// nothing and returns a no-op stop.
func (h *History) Start(interval time.Duration, fn func() map[string]float64) (stop func()) {
	if h == nil || fn == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		h.Record(time.Now(), fn())
		for {
			select {
			case <-done:
				return
			case <-t.C:
				h.Record(time.Now(), fn())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

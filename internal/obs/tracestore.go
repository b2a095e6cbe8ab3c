package obs

import (
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RequestTrace is one request's completed span tree plus the summary the
// trace browser lists: who it was, how long it took, and how it ended.
type RequestTrace struct {
	ID       string
	Name     string
	Start    time.Time
	Duration time.Duration
	Status   int
	Err      bool
	Spans    int
	Events   []TraceEvent
}

// Sizes of the request trace store: how many traces it holds, and how
// many of the slowest residents eviction always spares.
const (
	traceCapacity    = 512
	traceKeepSlowest = 16
)

// TraceStore keeps recent request traces in memory with tail-based
// retention: when full it evicts the oldest trace that is neither an error
// nor among the keepSlowest slowest, so the interesting tail (failures,
// latency outliers) survives a churn of fast healthy requests. Errors
// become evictable only once every resident trace is protected. The
// incoming trace is always stored.
//
// All methods are safe for concurrent use, and a nil *TraceStore is a
// valid disabled store: every method no-ops or returns zero values.
type TraceStore struct {
	mu    sync.Mutex
	slowN int
	ring  *Ring[*RequestTrace]
	seq   atomic.Uint64
}

// NewTraceStore returns a store holding the last 512 traces, always
// retaining the 16 slowest among residents.
func NewTraceStore() *TraceStore {
	return &TraceStore{slowN: traceKeepSlowest, ring: NewRing[*RequestTrace](traceCapacity)}
}

// NextID returns a fresh request id ("r000001", ...). Unique per store
// lifetime; ids are only meaningful within this process.
func (s *TraceStore) NextID() string {
	if s == nil {
		return ""
	}
	n := s.seq.Add(1)
	id := strconv.FormatUint(n, 10)
	for len(id) < 6 {
		id = "0" + id
	}
	return "r" + id
}

// Add inserts a completed trace, evicting per the retention policy.
func (s *TraceStore) Add(tr *RequestTrace) {
	if s == nil || tr == nil {
		return
	}
	tr.Spans = countSpans(tr.Events)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring.Len() == s.ring.Cap() {
		s.ring.Delete(s.victimLocked())
	}
	s.ring.Push(tr)
}

// victimLocked picks the trace to evict from a full store: the oldest
// that is neither an error nor among the slowN slowest, else the oldest
// non-slow one, else the oldest.
func (s *TraceStore) victimLocked() int {
	n := s.ring.Len()
	durs := make([]time.Duration, n)
	for i := range durs {
		durs[i] = s.ring.At(i).Duration
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] > durs[j] })
	cut := time.Duration(1<<63 - 1)
	if s.slowN > 0 {
		cut = durs[min(s.slowN, n)-1]
	}
	nonSlow := -1
	for i := 0; i < n; i++ {
		if tr := s.ring.At(i); tr.Duration < cut {
			if !tr.Err {
				return i
			}
			if nonSlow < 0 {
				nonSlow = i
			}
		}
	}
	return max(nonSlow, 0)
}

// Get returns the trace with the given id, or nil.
func (s *TraceStore) Get(id string) *RequestTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.ring.Len(); i++ {
		if tr := s.ring.At(i); tr.ID == id {
			return tr
		}
	}
	return nil
}

// Traces returns a snapshot of resident traces, newest first.
func (s *TraceStore) Traces() []*RequestTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ring.Last(0)
	slices.Reverse(out)
	return out
}

// Len returns the number of resident traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Len()
}

// Stats returns the lifetime added and evicted counts.
func (s *TraceStore) Stats() (added, evicted uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Total(), s.ring.Dropped()
}

func countSpans(events []TraceEvent) int {
	n := 0
	for _, e := range events {
		if e.Ph == "X" {
			n++
		}
	}
	return n
}

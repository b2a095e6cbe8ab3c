package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func fastTrace(id string, dur time.Duration) *RequestTrace {
	return &RequestTrace{ID: id, Name: "GET /v1/queries", Duration: dur, Status: 200}
}

// TestTraceStoreTailRetention is the retention guarantee: under a churn of
// fast healthy requests, the error trace and the slowest-N survive while
// the store stays bounded.
func TestTraceStoreTailRetention(t *testing.T) {
	s := newTraceStore(8, 2)
	s.Add(&RequestTrace{ID: "err-1", Duration: 5 * time.Millisecond, Status: 422, Err: true})
	s.Add(fastTrace("slow-1", 10*time.Second))
	s.Add(fastTrace("slow-2", 9*time.Second))
	for i := 0; i < 50; i++ {
		s.Add(fastTrace(fmt.Sprintf("fast-%d", i), time.Duration(i)*time.Microsecond))
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("store size %d, want cap 8", got)
	}
	for _, id := range []string{"err-1", "slow-1", "slow-2"} {
		if s.Get(id) == nil {
			t.Fatalf("protected trace %s was evicted", id)
		}
	}
	added, evicted := s.Stats()
	if added != 53 || evicted != 45 {
		t.Fatalf("stats = (%d, %d), want (53, 45)", added, evicted)
	}

	// Newest-first listing.
	list := s.Traces()
	if list[0].ID != "fast-49" {
		t.Fatalf("Traces()[0] = %s, want fast-49", list[0].ID)
	}

	// Errors lose protection only when everything resident is protected:
	// fill with errors and check the store still honors its bound.
	for i := 0; i < 20; i++ {
		s.Add(&RequestTrace{ID: fmt.Sprintf("err-flood-%d", i), Status: 500, Err: true})
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("store size %d after error flood, want 8", got)
	}
}

func TestTraceStoreSpansAndIDs(t *testing.T) {
	s := newTraceStore(4, 0)
	if id := s.NextID(); id != "r000001" {
		t.Fatalf("first id %q", id)
	}
	if id := s.NextID(); id != "r000002" {
		t.Fatalf("second id %q", id)
	}
	s.Add(&RequestTrace{ID: "a", Events: []TraceEvent{
		{Name: "root", Ph: "X"}, {Name: "child", Ph: "X"}, {Name: "meta", Ph: "M"},
	}})
	if got := s.Get("a").Spans; got != 2 {
		t.Fatalf("span count %d, want 2 (metadata events excluded)", got)
	}
}

func TestTraceStoreDisabled(t *testing.T) {
	var s *TraceStore
	if id := s.NextID(); id != "" {
		t.Fatalf("nil store id %q", id)
	}
	tr := fastTrace("x", time.Second)
	if n := testing.AllocsPerRun(100, func() {
		s.Add(tr)
		if s.Len() != 0 || s.Get("x") != nil || s.Traces() != nil {
			t.Fatal("nil store retained something")
		}
	}); n != 0 {
		t.Fatalf("nil store allocates %v per operation", n)
	}
}

// TestTraceStoreConcurrent hammers the store from many goroutines (run
// under -race in CI) and checks the bound holds throughout.
func TestTraceStoreConcurrent(t *testing.T) {
	s := newTraceStore(16, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(&RequestTrace{
					ID:       s.NextID(),
					Duration: time.Duration(g*200+i) * time.Microsecond,
					Status:   200,
					Err:      i%17 == 0,
				})
				if i%10 == 0 {
					s.Traces()
					s.Len()
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Len(); got != 16 {
		t.Fatalf("store size %d after hammer, want 16", got)
	}
	added, evicted := s.Stats()
	if added != 1600 || evicted != 1584 {
		t.Fatalf("stats = (%d, %d), want (1600, 1584)", added, evicted)
	}
}

package obs

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRingModel drives Ring with seeded random operations at every small
// capacity and checks it after each one against a plain-slice reference.
func TestRingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := 0
	for capacity := 1; capacity <= 8; capacity++ {
		r := NewRing[int](capacity)
		var ref []int
		var total, dropped uint64
		for step := 0; step < 2000; step++ {
			ops++
			switch op := rng.Intn(10); {
			case op < 5:
				v := rng.Int()
				r.Push(v)
				total++
				ref = append(ref, v)
				if len(ref) > capacity {
					ref = ref[1:]
					dropped++
				}
			case op < 6 && len(ref) > 0:
				i := rng.Intn(len(ref))
				r.Delete(i)
				ref = slices.Delete(ref, i, i+1)
				dropped++
			case op < 8:
				n := rng.Intn(capacity+2) - 1
				got := r.Drain(n)
				k := min(max(n, 0), len(ref))
				if !slices.Equal(got, ref[:k]) {
					t.Fatalf("cap %d step %d: Drain(%d) = %v, want %v", capacity, step, n, got, ref[:k])
				}
				ref = ref[k:]
			default:
				n := rng.Intn(capacity+2) - 1
				want := ref
				if n > 0 && n < len(ref) {
					want = ref[len(ref)-n:]
				}
				if got := r.Last(n); got == nil || !slices.Equal(got, want) {
					t.Fatalf("cap %d step %d: Last(%d) = %v, want %v", capacity, step, n, got, want)
				}
			}
			if r.Len() != len(ref) || r.Total() != total || r.Dropped() != dropped {
				t.Fatalf("cap %d step %d: len/total/dropped = %d/%d/%d, want %d/%d/%d",
					capacity, step, r.Len(), r.Total(), r.Dropped(), len(ref), total, dropped)
			}
			for i, v := range ref {
				if got := r.At(i); got != v {
					t.Fatalf("cap %d step %d: At(%d) = %d, want %d", capacity, step, i, got, v)
				}
			}
		}
	}
	if ops < 10000 {
		t.Fatalf("ran %d operations, want at least 10000", ops)
	}
}

// Sized constructors: the stores' tests run them at small capacities.

func newFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{ring: NewRing[FlightEvent](size)}
}

func newTraceStore(capacity, keepSlowest int) *TraceStore {
	return &TraceStore{slowN: keepSlowest, ring: NewRing[*RequestTrace](capacity)}
}

func (t *Tracer) startExport(size int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.export = NewRing[SpanData](size)
}

package obs

// Ring is a fixed-capacity circular buffer, the one bounded buffer behind
// every store of resident telemetry. Push drops the oldest entry once the
// ring is full, so memory stays bounded however long a process runs.
//
// A Ring has no lock of its own: its owner's mutex guards it, so one lock
// can cover many rings.
type Ring[T any] struct {
	buf            []T
	head, n        int
	total, dropped uint64
}

// NewRing returns an empty ring holding at most capacity (> 0) entries.
func NewRing[T any](capacity int) *Ring[T] { return &Ring[T]{buf: make([]T, capacity)} }

// idx maps entry i, oldest first, to its slot.
func (r *Ring[T]) idx(i int) int { return (r.head + i) % len(r.buf) }

// Push appends v as the newest entry, dropping the oldest when full.
func (r *Ring[T]) Push(v T) {
	r.total++
	if r.n == len(r.buf) {
		r.buf[r.head] = v
		r.head = r.idx(1)
		r.dropped++
		return
	}
	r.buf[r.idx(r.n)] = v
	r.n++
}

// Len returns the number of entries held.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// At returns entry i, oldest first (0 ≤ i < Len).
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("obs: ring index out of range")
	}
	return r.buf[r.idx(i)]
}

// Last returns a copy of the newest n entries (all of them when n ≤ 0 or
// n > Len), oldest first. The result is never nil.
func (r *Ring[T]) Last(n int) []T {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.buf[r.idx(r.n-n+i)]
	}
	return out
}

// Drain removes and returns up to n of the oldest entries, oldest first
// (nil when there are none to take).
func (r *Ring[T]) Drain(n int) []T {
	if n = min(n, r.n); n <= 0 {
		return nil
	}
	out := make([]T, n)
	var zero T
	for i := range out {
		out[i], r.buf[r.idx(i)] = r.buf[r.idx(i)], zero
	}
	r.head, r.n = r.idx(n), r.n-n
	return out
}

// Delete removes entry i, oldest first, keeping the order of the rest. It
// counts as a drop.
func (r *Ring[T]) Delete(i int) {
	r.At(i) // bounds check
	for ; i < r.n-1; i++ {
		r.buf[r.idx(i)] = r.buf[r.idx(i+1)]
	}
	var zero T
	r.buf[r.idx(r.n-1)] = zero
	r.n--
	r.dropped++
}

// Total returns how many entries were ever pushed.
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many entries left the ring without being drained:
// pushed out by a newer entry or removed by Delete.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

package obs

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Profile is one harvested pprof proto (already gzip-framed by
// runtime/pprof on the worker), tagged with where and when it was taken.
type Profile struct {
	ID     string    `json:"id"`
	Worker int       `json:"worker"`
	Kind   string    `json:"kind"` // "cpu" or "heap"
	Taken  time.Time `json:"taken"`
	Bytes  int       `json:"bytes"`
	Data   []byte    `json:"-"`
}

// profileCapacity is how many harvested profiles a ProfileStore keeps.
const profileCapacity = 32

// ProfileStore is the bounded ring of harvested profiles. Every method
// no-ops on a nil receiver. Eviction is FIFO — continuous harvest keeps
// the newest window.
type ProfileStore struct {
	mu   sync.Mutex
	ring *Ring[*Profile]
}

// NewProfileStore returns a store keeping the last 32 profiles.
func NewProfileStore() *ProfileStore {
	return &ProfileStore{ring: NewRing[*Profile](profileCapacity)}
}

// Add stores p, assigns it an ID ("p000001"-style), and returns the ID.
// The oldest profile is evicted once the store is full.
func (s *ProfileStore) Add(p *Profile) string {
	if s == nil || p == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p.ID = fmt.Sprintf("p%06d", s.ring.Total()+1)
	p.Bytes = len(p.Data)
	s.ring.Push(p)
	return p.ID
}

// Get returns the profile with the given ID, or nil.
func (s *ProfileStore) Get(id string) *Profile {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.ring.Len(); i++ {
		if p := s.ring.At(i); p.ID == id {
			return p
		}
	}
	return nil
}

// Profiles lists stored profiles newest-first (the slice is a copy; the
// Profile values are shared).
func (s *ProfileStore) Profiles() []*Profile {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ring.Last(0)
	slices.Reverse(out)
	return out
}

// Len reports how many profiles are held.
func (s *ProfileStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Len()
}

// Stats reports lifetime added and evicted counts.
func (s *ProfileStore) Stats() (added, evicted uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Total(), s.ring.Dropped()
}

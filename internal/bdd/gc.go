package bdd

import (
	mathbits "math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Parallel-mark tuning. The marker is iterative (no recursion — deep chains
// such as a 200k-variable cube must not blow the goroutine stack) and
// work-stealing: each goroutine runs depth-first over a private stack and
// donates half of it to a shared pool whenever the stack grows past
// gcDonateAbove, so an unbalanced DAG (one giant root, many tiny ones)
// still keeps every marker busy.
const (
	// Tables smaller than this mark on one goroutine: the fork/steal
	// machinery costs more than it saves on a few thousand nodes.
	gcSeqThreshold = 1 << 14
	// Local stack depth that triggers donating half to the shared pool.
	gcDonateAbove = 1024
	// Donations queue at most this many pending batches per marker; beyond
	// that everyone is busy and donating is pure overhead.
	gcMaxShared = 4
	// More markers than this see diminishing returns against the shared
	// bitset's cache-line traffic.
	gcMaxMarkProcs = 16
)

// marker is the shared state of one parallel mark phase. Visited bits live
// in a flat atomic bitset indexed by ref; tryVisit wins or loses each node
// exactly once via CAS, so two markers can race on the same child and only
// one will push it.
type marker struct {
	at    func(Ref) node
	marks []uint64 // atomic bitset, bit r = node r is reachable
	procs int

	mu      sync.Mutex
	cond    *sync.Cond
	shared  [][]Ref // donated batches awaiting a thief
	waiting int     // markers blocked in steal()
	done    bool
}

// tryVisit sets node r's mark bit; it returns true iff this call was the
// one that set it (the caller then owns pushing r's children).
func (m *marker) tryVisit(r Ref) bool {
	w := &m.marks[uint32(r)>>6]
	bit := uint64(1) << (uint32(r) & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			return false
		}
		// Go 1.22 has no atomic Or on uint64; CAS-loop the bit in.
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return true
		}
	}
}

// donate moves the older (shallower, bushier) half of the local stack into
// the shared pool and keeps the newer half for depth-first locality.
func (m *marker) donate(local []Ref) []Ref {
	m.mu.Lock()
	if len(m.shared) >= m.procs*gcMaxShared {
		m.mu.Unlock()
		return local
	}
	half := len(local) / 2
	batch := make([]Ref, half)
	copy(batch, local[:half])
	m.shared = append(m.shared, batch)
	m.cond.Signal()
	m.mu.Unlock()
	n := copy(local, local[half:])
	return local[:n]
}

// steal blocks until a donated batch is available or every marker is idle
// (global termination: waiting == procs with an empty pool means no one can
// produce more work).
func (m *marker) steal() ([]Ref, bool) {
	m.mu.Lock()
	m.waiting++
	for {
		if len(m.shared) > 0 {
			batch := m.shared[len(m.shared)-1]
			m.shared = m.shared[:len(m.shared)-1]
			m.waiting--
			m.mu.Unlock()
			return batch, true
		}
		if m.done || m.waiting == m.procs {
			m.done = true
			m.cond.Broadcast()
			m.mu.Unlock()
			return nil, false
		}
		m.cond.Wait()
	}
}

// run drains a local stack depth-first, then steals until global
// termination. Only refs that won tryVisit are ever on a stack, so each
// node's children are expanded exactly once across all markers.
func (m *marker) run(local []Ref) {
	for {
		for len(local) > 0 {
			r := local[len(local)-1]
			local = local[:len(local)-1]
			n := m.at(r)
			if m.tryVisit(n.low) {
				local = append(local, n.low)
			}
			if m.tryVisit(n.high) {
				local = append(local, n.high)
			}
			if m.procs > 1 && len(local) >= gcDonateAbove {
				local = m.donate(local)
			}
		}
		if m.procs <= 1 {
			return
		}
		var ok bool
		local, ok = m.steal()
		if !ok {
			return
		}
	}
}

// markProcs picks the marker pool size for a table of oldCount nodes.
func (e *Engine) markProcs(oldCount int) int {
	if oldCount < gcSeqThreshold {
		return 1
	}
	p := e.gcProcs
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > gcMaxMarkProcs {
		p = gcMaxMarkProcs
	}
	if p < 1 {
		p = 1
	}
	return p
}

// GC performs a mark-sweep collection: every node unreachable from the
// given roots is discarded, the node table is compacted, and the operation
// cache is relocated (surviving entries are translated to the new refs;
// entries naming a dead node are dropped). It returns a remap function
// translating old refs of reachable nodes to their new values; passing an
// unreachable (collected) ref to the remap is a programming error and
// returns False.
//
// GC is stop-the-world: the caller must guarantee no concurrent operation
// is in flight (workers GC only between phases/rounds). Within that
// exclusive window the mark phase itself fans out over a bounded
// work-stealing goroutine pool (SetGCParallelism), so the pause shrinks as
// cores are added; the sweep stays single-threaded because it assigns new
// ids in ascending old-id order — the property that keeps results
// byte-identical at any parallelism and keeps the remap monotonic (which
// cache relocation relies on).
//
// Real BDD libraries collect dead nodes the same way; the paper leans on
// this twice: BDD node-table garbage collections are a major cost of the
// centralized design (§2.2), and per-worker tables reduce them (§4.3).
func (e *Engine) GC(roots []Ref) func(Ref) Ref {
	start := time.Now()
	old := *e.dir.Load()
	oldCount := int(e.count.Load())
	at := func(r Ref) node { return old[r>>chunkBits][r&chunkMask] }

	// --- Mark: parallel, iterative, shared atomic bitset. ---
	procs := e.markProcs(oldCount)
	m := &marker{
		at:    at,
		marks: make([]uint64, (oldCount+63)/64),
		procs: procs,
	}
	m.cond = sync.NewCond(&m.mu)
	m.marks[0] = 0b11 // terminals are always live
	seeds := make([]Ref, 0, len(roots))
	for _, r := range roots {
		if int(r) < oldCount && m.tryVisit(r) {
			seeds = append(seeds, r)
		}
	}
	if procs <= 1 {
		m.run(seeds)
	} else {
		// Deal the distinct roots round-robin; imbalance self-corrects
		// through donation.
		parts := make([][]Ref, procs)
		for i, r := range seeds {
			parts[i%procs] = append(parts[i%procs], r)
		}
		var wg sync.WaitGroup
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(local []Ref) {
				defer wg.Done()
				m.run(local)
			}(parts[i])
		}
		wg.Wait()
	}
	live := 0
	for _, w := range m.marks {
		live += mathbits.OnesCount64(w)
	}
	markDone := time.Now()

	// --- Sweep: compact the table in ascending old-id order. ---
	remap := make([]Ref, oldCount)
	for i := range remap {
		remap[i] = -1
	}
	remap[False], remap[True] = False, True
	reachable := func(i int) bool { return m.marks[i>>6]&(1<<(uint(i)&63)) != 0 }

	// Rebuild chunks and the unique table. Children precede parents in the
	// table (allocation order: a node's children exist before it is made),
	// so their remaps exist already. The live count from the mark bitset
	// pre-sizes the chunk directory and the stripe tables, so the sweep
	// rarely rehashes; survivors enter the tables in ascending id order.
	first := new(chunk)
	first[False] = at(False)
	first[True] = at(True)
	newDir := make([]*chunk, 1, live>>chunkBits+1)
	newDir[0] = first
	newCount := 2
	put := func(n node) Ref {
		ci := newCount >> chunkBits
		if ci >= len(newDir) {
			newDir = append(newDir, new(chunk))
		}
		newDir[ci][newCount&chunkMask] = n
		newCount++
		return Ref(newCount - 1)
	}
	var newUnique [numStripes]refSet
	for i := range newUnique {
		newUnique[i] = newRefSet(live / numStripes)
	}
	for i := 2; i < oldCount; i++ {
		if !reachable(i) {
			continue
		}
		n := at(Ref(i))
		nn := node{level: n.level, low: remap[n.low], high: remap[n.high]}
		id := put(nn)
		h := nodeHash(nn.level, nn.low, nn.high)
		newUnique[h&(numStripes-1)].add(newDir, h, id)
		remap[i] = id
	}
	freed := oldCount - newCount
	sweepDone := time.Now()

	// --- Relocate: translate the op cache through the remap. ---
	kept, dropped := e.relocateCache(remap, newCount)
	end := time.Now()

	e.dir.Store(&newDir)
	e.count.Store(int64(newCount))
	for i := range e.unique {
		e.unique[i].refSet = newUnique[i]
	}
	if e.onGrow != nil && freed > 0 {
		e.onGrow(-freed)
	}

	e.gcMu.Lock()
	e.gcStats.Runs++
	e.gcStats.LastLive = newCount
	e.gcStats.LastFreed = freed
	e.gcStats.LastMarkProcs = procs
	e.gcStats.LastMark = markDone.Sub(start)
	e.gcStats.LastSweep = sweepDone.Sub(markDone)
	e.gcStats.LastRelocate = end.Sub(sweepDone)
	e.gcStats.LastPause = end.Sub(start)
	e.gcStats.TotalPause += end.Sub(start)
	e.gcStats.LastCacheRelocated = kept
	e.gcStats.LastCacheDropped = dropped
	e.gcStats.CacheRelocated += int64(kept)
	e.gcStats.CacheDropped += int64(dropped)
	e.gcMu.Unlock()

	return func(r Ref) Ref {
		if int(r) >= len(remap) || remap[r] < 0 {
			return False
		}
		return remap[r]
	}
}

// relocateCache translates every surviving op-cache entry through the
// remap table into a fresh slot array sized for the live table, dropping
// entries that name a dead node. This preserves the hit rate across
// collections — the first rounds after a GC no longer recompute every
// result the cache already knew.
//
// Key translation is op-aware: for opExists the b field is a *variable
// index* stored as a Ref, not a node, and must pass through untouched.
// Commutative keys (And/Or/Xor) are normalized a ≤ b before caching; the
// sweep assigns new ids in ascending old-id order, so the remap is
// monotonic over survivors and normalization is preserved without
// re-sorting.
func (e *Engine) relocateCache(remap []Ref, live int) (kept, dropped int) {
	mapRef := func(r Ref) (Ref, bool) {
		if r < 0 || int(r) >= len(remap) || remap[r] < 0 {
			return False, false
		}
		return remap[r], true
	}
	fresh := newOpCache(cacheBitsFor(live))
	kept, dropped = e.cache.Load().copyTo(fresh, func(op uint8, a, b, r Ref) (Ref, Ref, Ref, bool) {
		na, ok := mapRef(a)
		if !ok {
			return 0, 0, 0, false
		}
		nb := b
		switch op {
		case opAnd, opOr, opXor, opDiff, opNot:
			nb, ok = mapRef(b)
		case opExists:
			// b is the quantified variable index; not a node ref.
		default:
			ok = false
		}
		if !ok {
			return 0, 0, 0, false
		}
		nr, ok := mapRef(r)
		return na, nb, nr, ok
	})
	e.cache.Store(fresh)
	return kept, dropped
}

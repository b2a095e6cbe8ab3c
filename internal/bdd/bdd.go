// Package bdd implements a reduced ordered binary decision diagram engine —
// the symbolic-packet substrate for data plane verification. It replaces the
// JDD library the paper's prototype uses (§5.1).
//
// Design points that matter for S2:
//
//   - Every worker owns a private Engine, so BDD operations on different
//     workers never contend (§4.3, "each worker has its own BDD node table").
//   - Symbolic packets crossing workers share one reduced node table per
//     message and are re-encoded into the destination engine
//     (SerializeSet/DeserializeSet and the session codec, wire.go).
//   - The node table is observable (NodeCount) so the metrics package can
//     charge modelled memory, and bounded (MaxNodes) so the paper's "BDD
//     node table overflow" failure mode is reproducible.
//   - Like JDD's, the kernel is flat arrays: nodes live in fixed chunks,
//     the unique table is open-addressed arrays of 4-byte node indices, and
//     the computed cache is an array of 16-byte slots, so an operation
//     allocates nothing once the tables have grown.
//
// # Concurrency contract
//
// Engine operations (Apply-family, Not, Exists, Var, Cube, SerializeSet,
// DeserializeSet, Eval, AnySat, SatCount) are safe to call from many
// goroutines against one engine: the unique table is lock-striped (each
// stripe's open-addressed table grows by rehash under its own lock), node
// allocation is atomic over pointer-stable chunks, and the operation cache
// is a lock-free direct-mapped table whose slots are guarded by per-slot
// sequence numbers, so a reader never sees a torn entry and a writer that
// finds a slot busy drops its write. The cache is replaced, not resized in
// place, when the chunk directory grows, so an operation racing a resize
// at worst misses or loses a put. This is what lets a worker build FIB
// predicates and propagate symbolic packets for many nodes in parallel
// (one engine, NumCPU goroutines).
//
// GC is the exception: it is stop-the-world and must be called with no
// operation in flight (the callers' existing roots discipline — workers GC
// only between phases/rounds, never inside a parallel section). Refs
// returned before a GC are invalid afterwards unless remapped.
//
// The centralized baseline still wraps an engine in a SharedEngine whose
// single mutex reproduces the paper's coarse-lock parallelism bottleneck by
// serializing whole operations, not table accesses.
package bdd

import (
	"errors"
	"fmt"
	mathbits "math/bits"
	"sync"
	"sync/atomic"
)

// Ref is a node reference. The constants False and True are the terminal
// nodes; all other refs index the engine's node table. Refs are only
// meaningful within the engine that produced them.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// ErrNodeTableFull reports that an engine exceeded its configured node
// limit — the analogue of overflowing the 2^32-bounded node table in §2.2.
var ErrNodeTableFull = errors.New("bdd: node table full")

type node struct {
	level     int32 // variable index; terminals use level = numVars
	low, high Ref
}

// Cached operations. The op code occupies three bits of a cache slot.
const (
	opAnd uint8 = iota
	opOr
	opXor
	opDiff
	opNot
	opExists
)

// Node storage is a directory of fixed-size chunks. Chunks are never moved
// or copied once published — growth copies only the directory slice — so a
// concurrent reader holding a valid ref can load the directory once and
// index into a stable array while another goroutine allocates.
const (
	chunkBits = 13
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

type chunk [chunkSize]node

// The unique table is split into stripes, each behind its own mutex; a
// node's hash picks its stripe with the low bits. The stripe count trades
// memory for contention; 64 keeps 8–16 worker goroutines mostly
// collision-free while the per-engine overhead stays a few KiB.
const (
	numStripes = 64
	// minStripeSlots is the size of a fresh stripe's table.
	minStripeSlots = 16
)

type uniqueStripe struct {
	mu sync.Mutex
	refSet
}

// refSet is one stripe's open-addressed hash set of node refs, probed
// linearly from the home slot the hash's high bits pick. A slot holds a
// node index, or 0 for empty (False is never stored); the key (level, low,
// high) is read back from the node chunks, so a slot costs 4 bytes. The set
// grows by rehash at ¾ load.
type refSet struct {
	slots []Ref
	shift uint8 // 64 − log2(len(slots))
	used  int
}

// newRefSet returns a set sized to hold n refs below ¾ load.
func newRefSet(n int) refSet {
	size := minStripeSlots
	for size*3 < n*4 {
		size *= 2
	}
	return refSet{slots: make([]Ref, size), shift: uint8(64 - mathbits.TrailingZeros(uint(size)))}
}

// nodeHash mixes a node key into 64 bits (the splitmix64 finalizer).
func nodeHash(level int32, low, high Ref) uint64 {
	h := uint64(uint32(low)) | uint64(uint32(high))<<32
	h ^= uint64(uint32(level)) * 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// lookup returns the ref of node (level, low, high), or 0 if the set does
// not hold it. d must be a chunk directory holding every ref in the set.
func (t *refSet) lookup(d []*chunk, h uint64, level int32, low, high Ref) Ref {
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		r := t.slots[i]
		if r == 0 {
			return 0
		}
		if n := &d[r>>chunkBits][r&chunkMask]; n.level == level && n.low == low && n.high == high {
			return r
		}
	}
}

// add inserts r, whose node hashes to h and which the set does not hold,
// growing the set first if that would pass ¾ load. d must be a chunk
// directory holding every ref in the set.
func (t *refSet) add(d []*chunk, h uint64, r Ref) {
	if (t.used+1)*4 > len(t.slots)*3 {
		old := t.slots
		*t = refSet{slots: make([]Ref, 2*len(old)), shift: t.shift - 1}
		for _, o := range old {
			if o != 0 {
				n := &d[o>>chunkBits][o&chunkMask]
				t.place(nodeHash(n.level, n.low, n.high), o)
			}
		}
	}
	t.place(h, r)
}

func (t *refSet) place(h uint64, r Ref) {
	mask := len(t.slots) - 1
	i := int(h >> t.shift)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = r
	t.used++
}

// The operation cache is a direct-mapped, lock-free computed table of
// 16-byte slots. Collisions simply evict (classic BDD computed-table
// discipline: correctness never depends on a hit, only on never returning
// a wrong hit). Its size follows the node table: the power of two at or
// above the node count, clamped to [2^minCacheBits, 2^maxCacheBits]. The
// floor keeps a small engine's warm working set resident; the ceiling
// bounds a large engine at 2 MiB.
const (
	minCacheBits = 15
	maxCacheBits = 17
)

// A slot's meta word packs result<<32 | op<<seqBits | seq. The sequence is
// odd while a writer holds the slot; a reader accepts an entry only if it
// loads the same even meta word before and after the operand word, so it
// never pairs one write's operands with another's result (short of 2^28
// writes to the slot between its two loads).
const (
	seqBits = 29
	seqMask = 1<<seqBits - 1
)

type cacheSlot struct {
	ab   atomic.Uint64 // a<<32 | b; 0 while empty (every key has a ≠ False)
	meta atomic.Uint64
}

type opCache struct {
	slots []cacheSlot
	shift uint8 // 64 − log2(len(slots))
}

func newOpCache(bits int) *opCache {
	return &opCache{slots: make([]cacheSlot, 1<<bits), shift: uint8(64 - bits)}
}

// cacheBitsFor returns log2 of the cache size for a table of n nodes.
func cacheBitsFor(n int) int {
	return min(max(mathbits.Len(uint(n-1)), minCacheBits), maxCacheBits)
}

func cacheKey(a, b Ref) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

func (c *opCache) slot(op uint8, ab uint64) *cacheSlot {
	return &c.slots[((ab^uint64(op)<<59)*0x9e3779b97f4a7c15)>>c.shift]
}

func (c *opCache) get(op uint8, ab uint64) (Ref, bool) {
	s := c.slot(op, ab)
	m := s.meta.Load()
	if m&1 != 0 || uint8(m>>seqBits)&7 != op || s.ab.Load() != ab || s.meta.Load() != m {
		return False, false
	}
	return Ref(m >> 32), true
}

func (c *opCache) put(op uint8, ab uint64, r Ref) {
	s := c.slot(op, ab)
	m := s.meta.Load()
	if m&1 != 0 || !s.meta.CompareAndSwap(m, m+1) {
		return // another writer holds the slot; a cache may drop a write
	}
	s.ab.Store(ab)
	s.meta.Store(uint64(uint32(r))<<32 | uint64(op)<<seqBits | (m&seqMask+2)&seqMask)
}

// copyTo puts c's entries into fresh, passing each through tr, which
// returns the entry to store or ok=false to drop it; nil keeps entries as
// they are. Slots a writer holds are skipped, so c may still be in use.
func (c *opCache) copyTo(fresh *opCache, tr func(op uint8, a, b, r Ref) (na, nb, nr Ref, ok bool)) (kept, dropped int) {
	for i := range c.slots {
		s := &c.slots[i]
		m := s.meta.Load()
		ab := s.ab.Load()
		if ab == 0 || m&1 != 0 || s.meta.Load() != m {
			continue
		}
		op, r := uint8(m>>seqBits)&7, Ref(m>>32)
		if tr != nil {
			a, b, nr, ok := tr(op, Ref(ab>>32), Ref(uint32(ab)), r)
			if !ok {
				dropped++
				continue
			}
			ab, r = cacheKey(a, b), nr
		}
		fresh.put(op, ab, r)
		kept++
	}
	return kept, dropped
}

// Engine is one BDD node table with its operation cache. See the package
// comment for the concurrency contract.
type Engine struct {
	numVars  int
	maxNodes int

	// count is the number of allocated nodes (including terminals);
	// allocation CASes it forward so a failed maxNodes check can never be
	// caused by a transient overshoot.
	count atomic.Int64
	// dir is the chunk directory. Growing replaces the slice (copy-on-write
	// under growMu), and the operation cache with it; existing chunk
	// pointers are stable forever.
	dir    atomic.Pointer[[]*chunk]
	growMu sync.Mutex

	unique [numStripes]uniqueStripe
	cache  atomic.Pointer[opCache]

	// onGrow, when set, observes node-table growth for memory modelling.
	// It may be invoked from many goroutines; observers must be
	// thread-safe. Set it before issuing concurrent operations.
	onGrow func(delta int)

	// GC configuration and telemetry (see gc.go / gcstats.go). gcProcs is
	// set once before operations begin; gcStats is guarded by gcMu because
	// collections and stat readers may interleave.
	gcProcs int
	gcMu    sync.Mutex
	gcStats GCStats
}

// New creates an engine over numVars Boolean variables with an optional
// node limit (0 = unlimited).
func New(numVars, maxNodes int) *Engine {
	e := &Engine{
		numVars:  numVars,
		maxNodes: maxNodes,
	}
	for i := range e.unique {
		e.unique[i].refSet = newRefSet(0)
	}
	e.cache.Store(newOpCache(minCacheBits))
	// Terminals at the bottom of the order, in the first chunk.
	c := new(chunk)
	c[False] = node{level: int32(numVars)}
	c[True] = node{level: int32(numVars)}
	dir := []*chunk{c}
	e.dir.Store(&dir)
	e.count.Store(2)
	return e
}

// NumVars returns the variable count.
func (e *Engine) NumVars() int { return e.numVars }

// NodeCount returns the number of live nodes including terminals.
func (e *Engine) NodeCount() int { return int(e.count.Load()) }

// NodeModelBytes is the modelled memory charged per BDD node, matching
// packed int-array node tables (level, low, high, hash link) as in JDD.
const NodeModelBytes = 24

// ModelBytes returns the engine's modelled memory footprint.
func (e *Engine) ModelBytes() int64 {
	return int64(e.NodeCount()) * NodeModelBytes
}

// SetGrowObserver registers a callback invoked with the node-count delta
// whenever the table grows. Used by workers to feed memory trackers. The
// callback must be safe for concurrent invocation.
func (e *Engine) SetGrowObserver(fn func(delta int)) { e.onGrow = fn }

// node loads node r. Safe concurrently with allocation: refs are only
// obtained through operations whose synchronization (stripe/shard mutexes)
// orders the node write before the ref's publication, and chunks are
// pointer-stable.
func (e *Engine) node(r Ref) node {
	d := *e.dir.Load()
	return d[r>>chunkBits][r&chunkMask]
}

func (e *Engine) level(r Ref) int32 { return e.node(r).level }

// alloc claims the next table slot and writes n into it, growing the chunk
// directory, and the operation cache with it, as needed. Callers publish
// the returned ref only after alloc returns (mk does so under the
// unique-table stripe lock), which orders the node write before any
// cross-goroutine read.
func (e *Engine) alloc(n node) (Ref, error) {
	var idx int64
	for {
		c := e.count.Load()
		if e.maxNodes > 0 && c >= int64(e.maxNodes) {
			return False, fmt.Errorf("%w: %d nodes", ErrNodeTableFull, c)
		}
		if e.count.CompareAndSwap(c, c+1) {
			idx = c
			break
		}
	}
	ci := int(idx >> chunkBits)
	d := *e.dir.Load()
	if ci >= len(d) {
		e.growMu.Lock()
		d = *e.dir.Load()
		for ci >= len(d) {
			nd := make([]*chunk, len(d), len(d)+1)
			copy(nd, d)
			nd = append(nd, new(chunk))
			e.dir.Store(&nd)
			d = nd
		}
		if old, bits := e.cache.Load(), cacheBitsFor(int(idx)+1); bits > 64-int(old.shift) {
			fresh := newOpCache(bits)
			old.copyTo(fresh, nil)
			e.cache.Store(fresh)
		}
		e.growMu.Unlock()
	}
	d[ci][idx&chunkMask] = n
	return Ref(idx), nil
}

// findOrAdd returns the canonical ref of (level, low, high) from stripe
// set t, allocating it if absent. The caller holds t's stripe lock across
// the call, so a ref is never visible in the unique table before its node
// is written.
func (e *Engine) findOrAdd(t *refSet, h uint64, level int32, low, high Ref) (r Ref, fresh bool, err error) {
	if r := t.lookup(*e.dir.Load(), h, level, low, high); r != 0 {
		return r, false, nil
	}
	r, err = e.alloc(node{level: level, low: low, high: high})
	if err != nil {
		return False, false, err
	}
	t.add(*e.dir.Load(), h, r)
	return r, true, nil
}

// mk returns the canonical node (level, low, high), applying the two ROBDD
// reduction rules.
func (e *Engine) mk(level int32, low, high Ref) (Ref, error) {
	if low == high {
		return low, nil
	}
	h := nodeHash(level, low, high)
	s := &e.unique[h&(numStripes-1)]
	s.mu.Lock()
	r, fresh, err := e.findOrAdd(&s.refSet, h, level, low, high)
	s.mu.Unlock()
	if fresh && e.onGrow != nil {
		e.onGrow(1)
	}
	return r, err
}

// bulkInserter amortizes unique-table locking across a whole batch of mk
// calls: begin acquires every stripe lock in ascending stripe order (the
// same total order everywhere, so it cannot deadlock against concurrent
// mk, which takes exactly one stripe then growMu), the batch runs lookup
// and allocation with zero per-node lock traffic, and end releases the
// stripes and reports growth once. Wire-substrate deserialization uses
// this to materialize an entire message in one pass.
type bulkInserter struct {
	e    *Engine
	grew int
}

func (e *Engine) beginBulk() *bulkInserter {
	for i := range e.unique {
		e.unique[i].mu.Lock()
	}
	return &bulkInserter{e: e}
}

// mk is the bulk-path twin of Engine.mk; the caller must hold the batch
// open (between beginBulk and end).
func (b *bulkInserter) mk(level int32, low, high Ref) (Ref, error) {
	if low == high {
		return low, nil
	}
	h := nodeHash(level, low, high)
	r, fresh, err := b.e.findOrAdd(&b.e.unique[h&(numStripes-1)].refSet, h, level, low, high)
	if fresh {
		b.grew++
	}
	return r, err
}

// end releases the stripe locks and fires the grow observer. Safe to call
// exactly once, including on error paths (use defer).
func (b *bulkInserter) end() {
	e := b.e
	for i := range e.unique {
		e.unique[i].mu.Unlock()
	}
	if e.onGrow != nil && b.grew > 0 {
		e.onGrow(b.grew)
		b.grew = 0
	}
}

// cacheGet and cachePut are safe concurrently with each other and with a
// cache resize: the slot's sequence word orders the entry's words, and a
// cached ref's node write is published (by its stripe lock) before the put.
func (e *Engine) cacheGet(op uint8, a, b Ref) (Ref, bool) {
	return e.cache.Load().get(op, cacheKey(a, b))
}

func (e *Engine) cachePut(op uint8, a, b, r Ref) {
	e.cache.Load().put(op, cacheKey(a, b), r)
}

// Var returns the BDD for "variable i is 1".
func (e *Engine) Var(i int) (Ref, error) {
	if i < 0 || i >= e.numVars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", i, e.numVars)
	}
	return e.mk(int32(i), False, True)
}

// NVar returns the BDD for "variable i is 0".
func (e *Engine) NVar(i int) (Ref, error) {
	if i < 0 || i >= e.numVars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", i, e.numVars)
	}
	return e.mk(int32(i), True, False)
}

// apply evaluates a binary Boolean operation with memoization.
func (e *Engine) apply(op uint8, a, b Ref) (Ref, error) {
	switch op {
	case opAnd:
		if a == b {
			return a, nil
		}
		if a == False || b == False {
			return False, nil
		}
		if a == True {
			return b, nil
		}
		if b == True {
			return a, nil
		}
	case opOr:
		if a == b {
			return a, nil
		}
		if a == True || b == True {
			return True, nil
		}
		if a == False {
			return b, nil
		}
		if b == False {
			return a, nil
		}
	case opXor:
		if a == b {
			return False, nil
		}
		if a == False {
			return b, nil
		}
		if b == False {
			return a, nil
		}
	case opDiff: // a AND NOT b
		if a == False || b == True || a == b {
			return False, nil
		}
		if b == False {
			return a, nil
		}
	}
	// Normalize commutative operations for better cache hits.
	if (op == opAnd || op == opOr || op == opXor) && a > b {
		a, b = b, a
	}
	if r, ok := e.cacheGet(op, a, b); ok {
		return r, nil
	}
	na, nb := e.node(a), e.node(b)
	top := na.level
	if nb.level < top {
		top = nb.level
	}
	a0, a1 := a, a
	if na.level == top {
		a0, a1 = na.low, na.high
	}
	b0, b1 := b, b
	if nb.level == top {
		b0, b1 = nb.low, nb.high
	}
	low, err := e.apply(op, a0, b0)
	if err != nil {
		return False, err
	}
	high, err := e.apply(op, a1, b1)
	if err != nil {
		return False, err
	}
	r, err := e.mk(top, low, high)
	if err != nil {
		return False, err
	}
	e.cachePut(op, a, b, r)
	return r, nil
}

// And returns a ∧ b.
func (e *Engine) And(a, b Ref) (Ref, error) { return e.apply(opAnd, a, b) }

// Or returns a ∨ b.
func (e *Engine) Or(a, b Ref) (Ref, error) { return e.apply(opOr, a, b) }

// Xor returns a ⊕ b.
func (e *Engine) Xor(a, b Ref) (Ref, error) { return e.apply(opXor, a, b) }

// Diff returns a ∧ ¬b.
func (e *Engine) Diff(a, b Ref) (Ref, error) { return e.apply(opDiff, a, b) }

// Not returns ¬a.
func (e *Engine) Not(a Ref) (Ref, error) {
	switch a {
	case False:
		return True, nil
	case True:
		return False, nil
	}
	if r, ok := e.cacheGet(opNot, a, 0); ok {
		return r, nil
	}
	n := e.node(a)
	low, err := e.Not(n.low)
	if err != nil {
		return False, err
	}
	high, err := e.Not(n.high)
	if err != nil {
		return False, err
	}
	r, err := e.mk(n.level, low, high)
	if err != nil {
		return False, err
	}
	e.cachePut(opNot, a, 0, r)
	return r, nil
}

// Exists existentially quantifies variable v out of a: the result is true
// for an assignment iff a is true under some value of v. Used to "clear" a
// header bit before setting it (waypoint write rules, §4.4).
func (e *Engine) Exists(a Ref, v int) (Ref, error) {
	if v < 0 || v >= e.numVars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", v, e.numVars)
	}
	if a == False || a == True {
		return a, nil
	}
	n := e.node(a)
	if int(n.level) > v {
		// Levels increase downward, so v cannot appear in this sub-DAG.
		return a, nil
	}
	if r, ok := e.cacheGet(opExists, a, Ref(v)); ok {
		return r, nil
	}
	var r Ref
	var err error
	if int(n.level) == v {
		r, err = e.Or(n.low, n.high)
	} else {
		var low, high Ref
		low, err = e.Exists(n.low, v)
		if err != nil {
			return False, err
		}
		high, err = e.Exists(n.high, v)
		if err != nil {
			return False, err
		}
		r, err = e.mk(n.level, low, high)
	}
	if err != nil {
		return False, err
	}
	e.cachePut(opExists, a, Ref(v), r)
	return r, nil
}

// SetVar constrains variable v of a to the given value, overwriting any
// prior constraint: Exists(a, v) ∧ (v = value). This is the symbolic form
// of a header "write rule".
func (e *Engine) SetVar(a Ref, v int, value bool) (Ref, error) {
	q, err := e.Exists(a, v)
	if err != nil {
		return False, err
	}
	var lit Ref
	if value {
		lit, err = e.Var(v)
	} else {
		lit, err = e.NVar(v)
	}
	if err != nil {
		return False, err
	}
	return e.And(q, lit)
}

// AndAll folds And over refs; the empty conjunction is True.
func (e *Engine) AndAll(refs ...Ref) (Ref, error) {
	acc := True
	for _, r := range refs {
		var err error
		acc, err = e.And(acc, r)
		if err != nil {
			return False, err
		}
		if acc == False {
			return False, nil
		}
	}
	return acc, nil
}

// OrAll folds Or over refs; the empty disjunction is False.
func (e *Engine) OrAll(refs ...Ref) (Ref, error) {
	acc := False
	for _, r := range refs {
		var err error
		acc, err = e.Or(acc, r)
		if err != nil {
			return False, err
		}
		if acc == True {
			return True, nil
		}
	}
	return acc, nil
}

// Implies reports whether a ⇒ b (a ∧ ¬b is empty).
func (e *Engine) Implies(a, b Ref) (bool, error) {
	d, err := e.Diff(a, b)
	return d == False, err
}

// SatCount returns the number of satisfying assignments over all variables.
func (e *Engine) SatCount(r Ref) float64 {
	memo := map[Ref]float64{}
	var count func(Ref) float64
	count = func(r Ref) float64 {
		if r == False {
			return 0
		}
		if r == True {
			return 1
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := e.node(r)
		low := count(n.low) * pow2(int(e.level(n.low)-n.level-1))
		high := count(n.high) * pow2(int(e.level(n.high)-n.level-1))
		v := low + high
		memo[r] = v
		return v
	}
	return count(r) * pow2(int(e.level(r)))
}

func pow2(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 2
	}
	return v
}

// AnySat returns one satisfying assignment as a map from variable index to
// value, or ok=false for the empty set. Variables absent from the map are
// don't-cares.
func (e *Engine) AnySat(r Ref) (map[int]bool, bool) {
	if r == False {
		return nil, false
	}
	out := map[int]bool{}
	for r != True {
		n := e.node(r)
		if n.high != False {
			out[int(n.level)] = true
			r = n.high
		} else {
			out[int(n.level)] = false
			r = n.low
		}
	}
	return out, true
}

// Eval evaluates the BDD under a complete assignment (indexed by variable).
func (e *Engine) Eval(r Ref, assignment []bool) bool {
	for r != True && r != False {
		n := e.node(r)
		if assignment[n.level] {
			r = n.high
		} else {
			r = n.low
		}
	}
	return r == True
}

// Cube builds the conjunction of the given literals (variable index →
// polarity).
func (e *Engine) Cube(literals map[int]bool) (Ref, error) {
	// Build bottom-up in descending level order for linear node count.
	vars := make([]int, 0, len(literals))
	for v := range literals {
		vars = append(vars, v)
	}
	// Insertion sort descending (small inputs).
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && vars[j] > vars[j-1]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	acc := True
	for _, v := range vars {
		var err error
		var r Ref
		if literals[v] {
			r, err = e.mk(int32(v), False, acc)
		} else {
			r, err = e.mk(int32(v), acc, False)
		}
		if err != nil {
			return False, err
		}
		acc = r
	}
	return acc, nil
}

// PrefixCube builds the conjunction fixing variables offset … offset+n-1 to
// the n most significant bits of the width-bit value: the shape of every
// prefix, address and aligned-range match. It is Cube for consecutive
// variables without the literal map or the sort — one mk per bit, bottom-up
// — and returns the same canonical node.
func (e *Engine) PrefixCube(offset, width int, value uint32, n int) (Ref, error) {
	acc := True
	for i := n - 1; i >= 0; i-- {
		var err error
		if value>>(width-1-i)&1 == 1 {
			acc, err = e.mk(int32(offset+i), False, acc)
		} else {
			acc, err = e.mk(int32(offset+i), acc, False)
		}
		if err != nil {
			return False, err
		}
	}
	return acc, nil
}

package bdd

import (
	"encoding/binary"
	"fmt"
)

// The wire codec lets symbolic packets cross engine boundaries (③/⑤ in the
// paper's Figure 3). Because all engines share the global variable order,
// re-encoding preserves every function exactly. Many refs are encoded
// against ONE topologically-ordered node table per message, so a node
// shared by a thousand forwarding predicates crosses the wire once.
// On top of that, WireSession/WireTable implement a per-peer delta
// protocol: the sender remembers which node ids the peer has already
// materialized (this query phase) and later messages reference them by
// stable remote id instead of re-encoding. Sessions are epoch-stamped —
// garbage collection remaps refs and worker recovery rebuilds state, so
// either side can unilaterally reset and the explicit epoch/reset
// handshake (a fresh base==2 message, or a "please reset" reply) restarts
// the stream cleanly instead of corrupting refs.
//
// Message layout (all varints):
//
//	wireMagic numVars epoch base count
//	count × (levelDelta[zigzag] lowBack highBack)
//
// where node i has remote id base+i, levelDelta is relative to the
// previous node's level (0 for the first), and lowBack/highBack are the
// positive distances id−lowID / id−highID. SerializeSet uses the same
// layout with epoch=0, base=2 and appends rootCount + root ids;
// session messages carry their root ids out of band (one per packet).

// wireMagic guards against decoding garbage.
const wireMagic = 0x53325753 // "S2WS"

// wireBase is the first non-terminal remote id: ids 0 and 1 are always
// False and True.
const wireBase = 2

type wireHeader struct {
	numVars uint64
	epoch   uint64
	base    uint64
	count   uint64
}

func parseWireHeader(data []byte) (h wireHeader, rest []byte, err error) {
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("bdd: truncated wire header")
		}
		data = data[n:]
		return v, nil
	}
	magic, err := next()
	if err != nil || magic != wireMagic {
		return h, nil, fmt.Errorf("bdd: bad wire magic")
	}
	if h.numVars, err = next(); err != nil {
		return h, nil, err
	}
	if h.epoch, err = next(); err != nil {
		return h, nil, err
	}
	if h.base, err = next(); err != nil {
		return h, nil, err
	}
	if h.base < wireBase {
		return h, nil, fmt.Errorf("bdd: malformed wire base %d", h.base)
	}
	if h.count, err = next(); err != nil {
		return h, nil, err
	}
	// Every node takes at least three bytes: a count past what remains is
	// corrupt and must not size an allocation.
	if h.count > uint64(len(data)) {
		return h, nil, fmt.Errorf("bdd: wire node count %d exceeds remaining %d bytes", h.count, len(data))
	}
	return h, data, nil
}

// topoVisit walks the sub-DAG under r with an explicit stack (children
// before parents) and assigns sequential ids, via *next, to every node not
// already present in ids, appending them to *order in assignment order.
// The traversal is iterative so pathologically deep BDDs (e.g. a cube over
// hundreds of thousands of variables) cannot blow the goroutine stack.
// When dedup is non-nil it counts every arrival at an already-identified
// non-terminal node — the sharing a per-node encoding would re-transmit.
func (e *Engine) topoVisit(r Ref, ids map[Ref]uint32, order *[]Ref, next *uint32, dedup *int) {
	type frame struct {
		ref      Ref
		expanded bool
	}
	stack := []frame{{ref: r}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.expanded {
			if _, ok := ids[top.ref]; !ok {
				ids[top.ref] = *next
				*next++
				*order = append(*order, top.ref)
			}
			stack = stack[:len(stack)-1]
			continue
		}
		if _, ok := ids[top.ref]; ok {
			if dedup != nil && top.ref != False && top.ref != True {
				*dedup++
			}
			stack = stack[:len(stack)-1]
			continue
		}
		top.expanded = true
		n := e.node(top.ref)
		// Push high first so low is discovered first, matching the
		// historical recursive visit order (low, high, self).
		stack = append(stack, frame{ref: n.high}, frame{ref: n.low})
	}
}

// appendWireNodes emits order (already topologically sorted, ids assigned)
// in delta encoding.
func (e *Engine) appendWireNodes(buf []byte, order []Ref, ids map[Ref]uint32) []byte {
	prevLevel := int64(0)
	for _, x := range order {
		n := e.node(x)
		buf = binary.AppendVarint(buf, int64(n.level)-prevLevel)
		prevLevel = int64(n.level)
		id := uint64(ids[x])
		buf = binary.AppendUvarint(buf, id-uint64(ids[n.low]))
		buf = binary.AppendUvarint(buf, id-uint64(ids[n.high]))
	}
	return buf
}

// decodeWireNodes decodes count delta-encoded nodes, appending the
// resulting local refs to refs (whose length must equal the message base).
// The whole substrate is materialized in one pass under a single
// stripe-ordered lock acquisition (beginBulk) rather than node-at-a-time.
// Child levels are validated strictly below the parent's, so a malformed
// message can never smuggle an order-violating node into the engine.
func (e *Engine) decodeWireNodes(data []byte, refs []Ref, count uint64) ([]Ref, []byte, error) {
	b := e.beginBulk()
	defer b.end()
	prevLevel := int64(0)
	for i := uint64(0); i < count; i++ {
		ld, n := binary.Varint(data)
		if n <= 0 {
			return refs, nil, fmt.Errorf("bdd: truncated wire node %d", i)
		}
		data = data[n:]
		level := prevLevel + ld
		if level < 0 || level >= int64(e.numVars) {
			return refs, nil, fmt.Errorf("bdd: wire node %d level %d out of range", i, level)
		}
		prevLevel = level
		lowBack, n := binary.Uvarint(data)
		if n <= 0 {
			return refs, nil, fmt.Errorf("bdd: truncated wire node %d", i)
		}
		data = data[n:]
		highBack, n := binary.Uvarint(data)
		if n <= 0 {
			return refs, nil, fmt.Errorf("bdd: truncated wire node %d", i)
		}
		data = data[n:]
		id := uint64(len(refs))
		if lowBack == 0 || lowBack > id || highBack == 0 || highBack > id {
			return refs, nil, fmt.Errorf("bdd: wire node %d child out of range", i)
		}
		low, high := refs[id-lowBack], refs[id-highBack]
		// The variable-order invariant: both children live strictly
		// below this node (terminals sit at level numVars).
		if int64(e.level(low)) <= level || int64(e.level(high)) <= level {
			return refs, nil, fmt.Errorf("bdd: wire node %d violates variable order", i)
		}
		r, err := b.mk(int32(level), low, high)
		if err != nil {
			return refs, nil, err
		}
		refs = append(refs, r)
	}
	return refs, data, nil
}

// SerializeSet encodes many refs against one shared node table: each node
// reachable from any of the refs is emitted exactly once. The result is
// decoded by DeserializeSet, which returns one local ref per input ref, in
// order. Duplicate refs cost four bytes, not a re-encoding.
func (e *Engine) SerializeSet(refs []Ref) []byte {
	ids := map[Ref]uint32{False: 0, True: 1}
	var order []Ref
	next := uint32(wireBase)
	for _, r := range refs {
		e.topoVisit(r, ids, &order, &next, nil)
	}
	buf := make([]byte, 0, 24+len(order)*6+len(refs)*4)
	buf = binary.AppendUvarint(buf, wireMagic)
	buf = binary.AppendUvarint(buf, uint64(e.numVars))
	buf = binary.AppendUvarint(buf, 0) // epoch 0: sessionless
	buf = binary.AppendUvarint(buf, wireBase)
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	buf = e.appendWireNodes(buf, order, ids)
	buf = binary.AppendUvarint(buf, uint64(len(refs)))
	for _, r := range refs {
		buf = binary.AppendUvarint(buf, uint64(ids[r]))
	}
	return buf
}

// DeserializeSet decodes a SerializeSet message into this engine,
// returning one local ref per encoded root, in encoding order.
func (e *Engine) DeserializeSet(data []byte) ([]Ref, error) {
	h, rest, err := parseWireHeader(data)
	if err != nil {
		return nil, err
	}
	if int(h.numVars) != e.numVars {
		return nil, fmt.Errorf("bdd: variable count mismatch: encoded %d, engine %d", h.numVars, e.numVars)
	}
	if h.base != wireBase {
		return nil, fmt.Errorf("bdd: sessionless wire message must start at base %d, got %d", wireBase, h.base)
	}
	refs := make([]Ref, wireBase, wireBase+h.count)
	refs[0], refs[1] = False, True
	refs, rest, err = e.decodeWireNodes(rest, refs, h.count)
	if err != nil {
		return nil, err
	}
	rootCount, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("bdd: truncated wire roots")
	}
	rest = rest[n:]
	if rootCount > uint64(len(rest)) {
		return nil, fmt.Errorf("bdd: wire root count %d exceeds remaining %d bytes", rootCount, len(rest))
	}
	roots := make([]Ref, rootCount)
	for i := range roots {
		id, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("bdd: truncated wire roots")
		}
		rest = rest[n:]
		if id >= uint64(len(refs)) {
			return nil, fmt.Errorf("bdd: wire root %d out of range", i)
		}
		roots[i] = refs[id]
	}
	return roots, nil
}

// WireSession is the sender half of the per-peer delta protocol: it maps
// local refs to the remote ids the peer materialized earlier this epoch.
// Reset MUST be called whenever local refs are invalidated (GC remap) or
// the peer may have lost state (recovery re-setup, new query phase) — the
// epoch bump tells the receiver to discard its table. Not safe for
// concurrent use; a worker drives each session from its phase goroutine.
type WireSession struct {
	epoch uint64
	ids   map[Ref]uint32
	next  uint32
}

// NewWireSession starts a session at epoch 1.
func NewWireSession() *WireSession {
	s := &WireSession{}
	s.Reset()
	return s
}

// Epoch returns the current epoch.
func (s *WireSession) Epoch() uint64 { return s.epoch }

// Known returns how many non-terminal nodes the peer holds this epoch.
func (s *WireSession) Known() int { return int(s.next) - wireBase }

// Reset forgets everything the peer knows and bumps the epoch.
func (s *WireSession) Reset() {
	s.epoch++
	s.ids = map[Ref]uint32{False: 0, True: 1}
	s.next = wireBase
}

// EncodeDelta encodes refs against the session: nodes the peer already
// holds are referenced by remote id, only novel nodes are transmitted.
// It returns the substrate message (possibly containing zero new nodes),
// the remote id of each input ref, and counters: newNodes actually encoded
// and deduped arrivals at already-known non-terminals (the re-encodings a
// per-packet codec would have paid). The session optimistically records
// the transmitted nodes as known; if delivery fails the session must be
// Reset before the next encode.
func (e *Engine) EncodeDelta(s *WireSession, refs []Ref) (wire []byte, roots []uint32, newNodes, deduped int) {
	base := s.next
	var order []Ref
	for _, r := range refs {
		e.topoVisit(r, s.ids, &order, &s.next, &deduped)
	}
	buf := make([]byte, 0, 24+len(order)*6)
	buf = binary.AppendUvarint(buf, wireMagic)
	buf = binary.AppendUvarint(buf, uint64(e.numVars))
	buf = binary.AppendUvarint(buf, s.epoch)
	buf = binary.AppendUvarint(buf, uint64(base))
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	buf = e.appendWireNodes(buf, order, s.ids)
	roots = make([]uint32, len(refs))
	for i, r := range refs {
		roots[i] = s.ids[r]
	}
	return buf, roots, len(order), deduped
}

// WireTable is the receiver half of the delta protocol: remote id → local
// ref for one sender. Acceptance (protocol continuity, cheap header-only
// bookkeeping, callable from RPC goroutines under the caller's lock) is
// deliberately split from materialization (engine writes, driven later by
// the worker's phase goroutine in arrival order), because deliveries land
// concurrently with rounds but engines must not be touched mid-GC.
type WireTable struct {
	// Accept-side cursor: epoch and next-expected id counting every
	// accepted message, materialized or not. Guarded by the caller.
	acceptEpoch uint64
	acceptNext  uint64
	accepted    bool

	// Materialize-side state, touched only by the owner's goroutine.
	epoch uint64
	refs  []Ref
}

// NewWireTable returns an empty receiver table.
func NewWireTable() *WireTable { return &WireTable{} }

// Accept validates a message header against the session cursor. A fresh
// start (base == 2) is always accepted and rebases the session on the
// message's epoch; a continuation must match the current epoch and splice
// exactly at the cursor. ok == false means the sender's view has diverged
// (e.g. this side lost state) and it must Reset and re-send — the reset
// half of the handshake. Nothing is materialized here.
func (t *WireTable) Accept(data []byte, numVars int) (ok bool, err error) {
	h, _, err := parseWireHeader(data)
	if err != nil {
		return false, err
	}
	if int(h.numVars) != numVars {
		return false, fmt.Errorf("bdd: variable count mismatch: encoded %d, engine %d", h.numVars, numVars)
	}
	switch {
	case h.base == wireBase:
		t.acceptEpoch, t.acceptNext, t.accepted = h.epoch, wireBase+h.count, true
		return true, nil
	case t.accepted && h.epoch == t.acceptEpoch && h.base == t.acceptNext:
		t.acceptNext += h.count
		return true, nil
	default:
		return false, nil
	}
}

// Materialize decodes an accepted message into e, extending (or, on a
// fresh start, rebuilding) the id table. Messages must be materialized in
// acceptance order.
func (t *WireTable) Materialize(e *Engine, data []byte) error {
	h, rest, err := parseWireHeader(data)
	if err != nil {
		return err
	}
	if h.base == wireBase {
		t.refs = append(t.refs[:0], False, True)
		t.epoch = h.epoch
	} else if h.epoch != t.epoch || h.base != uint64(len(t.refs)) {
		return fmt.Errorf("bdd: wire message out of order: epoch %d base %d, table at epoch %d size %d",
			h.epoch, h.base, t.epoch, len(t.refs))
	}
	t.refs, _, err = e.decodeWireNodes(rest, t.refs, h.count)
	return err
}

// Resolve maps a remote id from a materialized message to its local ref.
func (t *WireTable) Resolve(id uint32) (Ref, error) {
	if uint64(id) >= uint64(len(t.refs)) {
		return False, fmt.Errorf("bdd: wire root id %d beyond table size %d", id, len(t.refs))
	}
	return t.refs[id], nil
}

// Refs exposes the materialized local refs so the owner can root them
// across a GC; pair with Remap.
func (t *WireTable) Refs() []Ref { return t.refs }

// Remap rewrites the materialized refs through a GC remap function.
func (t *WireTable) Remap(f func(Ref) Ref) {
	for i, r := range t.refs {
		t.refs[i] = f(r)
	}
}

package bdd

import (
	"encoding/binary"
	"fmt"
)

// Serialization lets symbolic packets cross worker boundaries: the sender
// walks the reachable sub-DAG of a ref and emits a compact node list; the
// receiver re-encodes it into its own engine with Deserialize (③/⑤ in the
// paper's Figure 3). Because all engines share the global variable order,
// re-encoding preserves the packet set exactly.

// serialMagic guards against decoding garbage.
const serialMagic = 0x53324244 // "S2BD"

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

// Serialize encodes the function rooted at r as a byte string independent
// of this engine's node numbering.
func (e *Engine) Serialize(r Ref) []byte {
	// Topological order: children before parents. Index 0 = False,
	// 1 = True by convention, further indices follow discovery order.
	index := map[Ref]uint32{False: 0, True: 1}
	var order []Ref
	next := uint32(2)
	e.topoVisit(r, index, &order, &next, nil)

	buf := make([]byte, 0, 16+len(order)*12)
	buf = binary.AppendUvarint(buf, serialMagic)
	buf = binary.AppendUvarint(buf, uint64(e.numVars))
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, x := range order {
		n := e.node(x)
		buf = binary.AppendUvarint(buf, uint64(n.level))
		buf = binary.AppendUvarint(buf, uint64(index[n.low]))
		buf = binary.AppendUvarint(buf, uint64(index[n.high]))
	}
	buf = binary.AppendUvarint(buf, uint64(index[r]))
	return buf
}

// Deserialize re-encodes a serialized function into this engine, returning
// the local ref. The source engine must have used the same variable count.
func (e *Engine) Deserialize(data []byte) (Ref, error) {
	magic, n := binary.Uvarint(data)
	if n <= 0 || magic != serialMagic {
		return False, fmt.Errorf("bdd: bad serialization header")
	}
	data = data[n:]
	numVars, n := binary.Uvarint(data)
	if n <= 0 {
		return False, fmt.Errorf("bdd: truncated serialization")
	}
	if int(numVars) != e.numVars {
		return False, fmt.Errorf("bdd: variable count mismatch: encoded %d, engine %d", numVars, e.numVars)
	}
	data = data[n:]
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return False, fmt.Errorf("bdd: truncated serialization")
	}
	data = data[n:]
	if count > uint64(len(data)) {
		return False, fmt.Errorf("bdd: node count %d exceeds remaining %d bytes", count, len(data))
	}

	refs := make([]Ref, count+2)
	refs[0], refs[1] = False, True
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("bdd: truncated serialization")
		}
		data = data[n:]
		return v, nil
	}
	for i := uint64(0); i < count; i++ {
		level, err := next()
		if err != nil {
			return False, err
		}
		lowIdx, err := next()
		if err != nil {
			return False, err
		}
		highIdx, err := next()
		if err != nil {
			return False, err
		}
		if int(level) >= e.numVars || lowIdx >= i+2 || highIdx >= i+2 {
			return False, fmt.Errorf("bdd: malformed serialization entry %d", i)
		}
		r, err := e.mk(int32(level), refs[lowIdx], refs[highIdx])
		if err != nil {
			return False, err
		}
		refs[i+2] = r
	}
	rootIdx, err := next()
	if err != nil {
		return False, err
	}
	if rootIdx >= uint64(len(refs)) {
		return False, fmt.Errorf("bdd: malformed serialization root")
	}
	return refs[rootIdx], nil
}

package bdd

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// fingerprint is r's canonical encoding: independent of the engine's node
// numbering, so equal bytes mean equal functions, within an engine and
// across engines.
func fingerprint(e *Engine, r Ref) []byte { return e.SerializeSet([]Ref{r}) }

// buildRandomFns builds n random functions over nvars variables on e.
func buildRandomFns(t *testing.T, e *Engine, nvars, n int, seed int64) []Ref {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Ref, 0, n)
	for k := 0; k < n; k++ {
		f := True
		for i := 0; i < 8; i++ {
			v, err := e.Var(rng.Intn(nvars))
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				v, err = e.Not(v)
				if err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(2) == 0 {
				f, err = e.And(f, v)
			} else {
				f, err = e.Or(f, v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, f)
	}
	return out
}

// sameFn checks a-side f and b-side g agree on sampled assignments.
func sameFn(t *testing.T, a *Engine, f Ref, b *Engine, g Ref, nvars int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	asg := make([]bool, nvars)
	for trial := 0; trial < 500; trial++ {
		for i := range asg {
			asg[i] = rng.Intn(2) == 0
		}
		if a.Eval(f, asg) != b.Eval(g, asg) {
			t.Fatalf("functions differ at %v", asg)
		}
	}
}

func TestSerializeSetRoundTrip(t *testing.T) {
	const nvars = 16
	a := New(nvars, 0)
	b := New(nvars, 0)
	fns := buildRandomFns(t, a, nvars, 6, 11)
	// Include terminals and a duplicate: both must survive the set codec.
	refs := append([]Ref{False, True, fns[0]}, fns...)

	roots, err := b.DeserializeSet(a.SerializeSet(refs))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != len(refs) {
		t.Fatalf("got %d roots for %d refs", len(roots), len(refs))
	}
	if roots[0] != False || roots[1] != True {
		t.Fatalf("terminals did not survive: %v", roots[:2])
	}
	if roots[2] != roots[3] {
		t.Fatal("duplicate refs must decode to the same local ref")
	}
	for i, r := range refs {
		sameFn(t, a, r, b, roots[i], nvars, int64(100+i))
	}
}

func TestSerializeRoundTripSameEngine(t *testing.T) {
	e := New(8, 0)
	x, _ := e.Var(0)
	y, _ := e.Var(3)
	ny, _ := e.Not(y)
	f, _ := e.And(x, ny)
	g, _ := e.Or(f, y)

	refs := []Ref{False, True, x, f, g}
	got, err := e.DeserializeSet(e.SerializeSet(refs))
	if err != nil {
		t.Fatalf("deserialize: %v", err)
	}
	for i, r := range refs {
		if got[i] != r {
			t.Fatalf("round trip changed ref: %d -> %d", r, got[i])
		}
	}
}

func TestSerializeAcrossEngines(t *testing.T) {
	// The cross-worker path: build in engine A, transfer to B, verify the
	// function is identical by model count and truth-table sampling.
	const nvars = 16
	a := New(nvars, 0)
	b := New(nvars, 0)
	f := buildRandomFns(t, a, nvars, 1, 9)[0]
	got, err := b.DeserializeSet(fingerprint(a, f))
	if err != nil {
		t.Fatal(err)
	}
	if a.SatCount(f) != b.SatCount(got[0]) {
		t.Fatalf("satcount mismatch: %v vs %v", a.SatCount(f), b.SatCount(got[0]))
	}
	sameFn(t, a, f, b, got[0], nvars, 10)
}

func TestSerializeDeepChain(t *testing.T) {
	// A conjunction of every variable is one chain of nvars nodes — the
	// deepest possible BDD. The traversal in topoVisit is iterative, so
	// this must round-trip without exhausting the stack no matter how deep
	// the chain gets.
	const nvars = 200_000
	a := New(nvars, 0)
	acc := True
	for i := nvars - 1; i >= 0; i-- { // bottom-up keeps construction linear
		v, err := a.Var(i)
		if err != nil {
			t.Fatal(err)
		}
		acc, err = a.And(v, acc)
		if err != nil {
			t.Fatal(err)
		}
	}

	b := New(nvars, 0)
	roots, err := b.DeserializeSet(a.SerializeSet([]Ref{acc, acc}))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots[0] != roots[1] {
		t.Fatalf("duplicate roots diverged: %v", roots)
	}
	asg := make([]bool, nvars)
	for i := range asg {
		asg[i] = true
	}
	if !b.Eval(roots[0], asg) {
		t.Fatal("all-true assignment must satisfy the cube")
	}
	asg[nvars/2] = false
	if b.Eval(roots[0], asg) {
		t.Fatal("assignment with a false variable must not satisfy the cube")
	}
}

func TestSerializeSetSharesSubstrate(t *testing.T) {
	// Functions built from the same clauses share most of their nodes: one
	// set-encoded message must be substantially smaller than one message
	// per ref, which re-encodes the shared sub-DAG every time.
	const nvars = 24
	e := New(nvars, 0)
	base := True
	for i := 0; i < nvars-1; i++ {
		v, _ := e.Var(i)
		var err error
		base, err = e.And(base, v)
		if err != nil {
			t.Fatal(err)
		}
	}
	last, _ := e.Var(nvars - 1)
	nlast, _ := e.Not(last)
	f1, _ := e.And(base, last)
	f2, _ := e.And(base, nlast)
	f3, _ := e.Or(f1, f2)
	refs := []Ref{f1, f2, f3, f1, f2, f3}

	perRef := 0
	for _, r := range refs {
		perRef += len(fingerprint(e, r))
	}
	set := len(e.SerializeSet(refs))
	if set*2 >= perRef {
		t.Fatalf("set encoding %dB not < half of per-ref %dB", set, perRef)
	}
}

func TestSerializeSetEmpty(t *testing.T) {
	a := New(8, 0)
	b := New(8, 0)
	roots, err := b.DeserializeSet(a.SerializeSet(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 0 {
		t.Fatalf("empty set decoded %d roots", len(roots))
	}
}

func TestDeserializeGarbage(t *testing.T) {
	e := New(8, 0)
	x, _ := e.Var(2)
	y, _ := e.Var(5)
	f, _ := e.And(x, y)
	good := e.SerializeSet([]Ref{f})
	cases := [][]byte{nil, {1}, {0xff, 0xff, 0xff}, []byte("not a wire message"), good[:len(good)-1], good[:len(good)-2]}
	// Counts past the payload must fail before they size an allocation.
	cases = append(cases, hugeSetNodeCount(), hugeSetRootCount())
	for _, data := range cases {
		if _, err := e.DeserializeSet(data); err == nil {
			t.Fatalf("garbage %v should fail", data)
		}
	}
}

func TestDeserializeVarMismatch(t *testing.T) {
	a := New(8, 0)
	x, _ := a.Var(0)
	if _, err := New(16, 0).DeserializeSet(a.SerializeSet([]Ref{x})); err == nil {
		t.Fatal("variable count mismatch must error")
	}
}

func TestDeserializeSetRejectsGarbage(t *testing.T) {
	e := New(8, 0)
	// One-node messages whose node points at itself (the only forward
	// reference a back-distance encoding can express), before the table
	// start, or sits past the last variable.
	node := func(level int64, lowBack, highBack uint64) []byte {
		b := uvarints(wireMagic, 8, 0, wireBase, 1)
		b = binary.AppendVarint(b, level)
		return append(b, uvarints(lowBack, highBack, 1, wireBase)...)
	}
	if _, err := e.DeserializeSet(node(0, 1, 2)); err != nil {
		t.Fatalf("well-formed one-node message rejected: %v", err)
	}
	for _, data := range [][]byte{node(0, 0, 1), node(0, 1, 3), node(8, 1, 2)} {
		if _, err := e.DeserializeSet(data); err == nil {
			t.Fatalf("garbage %v should fail", data)
		}
	}
}

// uvarints appends each value as a uvarint.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// hugeSetNodeCount is a set-message header (8 variables, epoch 0) that
// claims 2^40 nodes and carries none.
func hugeSetNodeCount() []byte { return uvarints(wireMagic, 8, 0, wireBase, 1<<40) }

// hugeSetRootCount is an empty set message that claims 2^40 roots.
func hugeSetRootCount() []byte { return uvarints(wireMagic, 8, 0, wireBase, 0, 1<<40) }

// deliver runs one sender→receiver message exchange: Accept then
// Materialize, returning the receiver-local refs for the roots.
func deliver(t *testing.T, recv *Engine, table *WireTable, wire []byte, roots []uint32) []Ref {
	t.Helper()
	ok, err := table.Accept(wire, recv.NumVars())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("delivery unexpectedly refused")
	}
	if err := table.Materialize(recv, wire); err != nil {
		t.Fatal(err)
	}
	out := make([]Ref, len(roots))
	for i, id := range roots {
		r, err := table.Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func TestWireSessionDelta(t *testing.T) {
	const nvars = 16
	a := New(nvars, 0)
	b := New(nvars, 0)
	fns := buildRandomFns(t, a, nvars, 4, 23)

	sess := NewWireSession()
	table := NewWireTable()

	// First message carries everything.
	wire1, roots1, new1, _ := a.EncodeDelta(sess, fns[:2])
	if new1 == 0 {
		t.Fatal("first message must carry nodes")
	}
	got := deliver(t, b, table, wire1, roots1)
	sameFn(t, a, fns[0], b, got[0], nvars, 1)
	sameFn(t, a, fns[1], b, got[1], nvars, 2)

	// Re-sending the same refs is pure dedup: zero new nodes, nonzero
	// dedup counter, same resolved functions.
	wire2, roots2, new2, dedup2 := a.EncodeDelta(sess, fns[:2])
	if new2 != 0 {
		t.Fatalf("re-send encoded %d new nodes", new2)
	}
	if dedup2 == 0 {
		t.Fatal("re-send must count deduped arrivals")
	}
	if len(wire2) >= len(wire1) {
		t.Fatalf("delta message %dB not smaller than first %dB", len(wire2), len(wire1))
	}
	got2 := deliver(t, b, table, wire2, roots2)
	if got2[0] != got[0] || got2[1] != got[1] {
		t.Fatal("dedup delivery resolved different refs")
	}

	// New functions extend the session incrementally.
	wire3, roots3, _, _ := a.EncodeDelta(sess, fns[2:])
	got3 := deliver(t, b, table, wire3, roots3)
	sameFn(t, a, fns[2], b, got3[0], nvars, 3)
	sameFn(t, a, fns[3], b, got3[1], nvars, 4)
}

func TestWireSessionEpochReset(t *testing.T) {
	const nvars = 12
	a := New(nvars, 0)
	b := New(nvars, 0)
	fns := buildRandomFns(t, a, nvars, 2, 31)

	sess := NewWireSession()
	table := NewWireTable()
	wire1, roots1, _, _ := a.EncodeDelta(sess, fns[:1])
	deliver(t, b, table, wire1, roots1)

	// The sender loses confidence (GC remap, delivery error): Reset bumps
	// the epoch and the next message is self-contained (base == 2), which
	// the receiver must accept unconditionally and rebuild from.
	epoch := sess.Epoch()
	sess.Reset()
	if sess.Epoch() <= epoch || sess.Known() != 0 {
		t.Fatalf("reset did not clear session: epoch %d→%d known %d", epoch, sess.Epoch(), sess.Known())
	}
	wire2, roots2, new2, _ := a.EncodeDelta(sess, fns)
	if new2 == 0 {
		t.Fatal("post-reset message must re-encode everything")
	}
	got := deliver(t, b, table, wire2, roots2)
	sameFn(t, a, fns[0], b, got[0], nvars, 5)
	sameFn(t, a, fns[1], b, got[1], nvars, 6)
}

func TestWireTableRefusesDivergedContinuation(t *testing.T) {
	const nvars = 12
	a := New(nvars, 0)
	b := New(nvars, 0)
	fns := buildRandomFns(t, a, nvars, 2, 47)

	sess := NewWireSession()
	wire1, _, _, _ := a.EncodeDelta(sess, fns[:1])
	wire2, roots2, _, _ := a.EncodeDelta(sess, fns[1:])

	// A fresh receiver (restart, recovery) sees the continuation without
	// its prefix: Accept must refuse rather than materialize bad splices.
	fresh := NewWireTable()
	ok, err := fresh.Accept(wire2, nvars)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("continuation onto an empty table must be refused")
	}
	// The handshake: sender resets and re-sends self-contained.
	sess.Reset()
	wire3, roots3, _, _ := a.EncodeDelta(sess, fns[1:])
	got := deliver(t, b, fresh, wire3, roots3)
	sameFn(t, a, fns[1], b, got[0], nvars, 7)

	// Materialize out of order (without Accept's rebase) errors loudly.
	if err := NewWireTable().Materialize(b, wire2); err == nil {
		t.Fatal("out-of-order materialize must error")
	}
	_ = roots2
	_ = wire1
}

func TestWireSessionSurvivesManyRounds(t *testing.T) {
	// Soak the protocol across rounds with overlapping working sets and
	// occasional resets, checking every resolved function.
	const nvars = 14
	a := New(nvars, 0)
	b := New(nvars, 0)
	fns := buildRandomFns(t, a, nvars, 12, 77)
	sess := NewWireSession()
	table := NewWireTable()
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 20; round++ {
		if round%7 == 6 {
			sess.Reset()
		}
		batch := make([]Ref, 0, 4)
		for i := 0; i < 4; i++ {
			batch = append(batch, fns[rng.Intn(len(fns))])
		}
		wire, roots, _, _ := a.EncodeDelta(sess, batch)
		got := deliver(t, b, table, wire, roots)
		for i, f := range batch {
			sameFn(t, a, f, b, got[i], nvars, int64(round*10+i))
		}
	}
}

package bdd

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustVar(t *testing.T, e *Engine, i int) Ref {
	t.Helper()
	r, err := e.Var(i)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTerminalsAndVar(t *testing.T) {
	e := New(4, 0)
	if e.NumVars() != 4 || e.NodeCount() != 2 {
		t.Fatal("fresh engine")
	}
	x := mustVar(t, e, 0)
	if x == True || x == False {
		t.Fatal("var is not terminal")
	}
	x2 := mustVar(t, e, 0)
	if x != x2 {
		t.Fatal("unique table must canonicalize")
	}
	if _, err := e.Var(4); err == nil {
		t.Fatal("out of range var")
	}
	if _, err := e.NVar(-1); err == nil {
		t.Fatal("out of range nvar")
	}
}

func TestBooleanIdentities(t *testing.T) {
	e := New(3, 0)
	x, y := mustVar(t, e, 0), mustVar(t, e, 1)
	nx, err := e.Not(x)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, got, want Ref) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %d want %d", name, got, want)
		}
	}
	and, _ := e.And(x, nx)
	check("x∧¬x=⊥", and, False)
	or, _ := e.Or(x, nx)
	check("x∨¬x=⊤", or, True)
	xx, _ := e.And(x, x)
	check("x∧x=x", xx, x)
	xT, _ := e.And(x, True)
	check("x∧⊤=x", xT, x)
	xF, _ := e.Or(x, False)
	check("x∨⊥=x", xF, x)
	nnx, _ := e.Not(nx)
	check("¬¬x=x", nnx, x)
	xor, _ := e.Xor(x, x)
	check("x⊕x=⊥", xor, False)
	diff, _ := e.Diff(x, x)
	check("x∖x=⊥", diff, False)

	// De Morgan: ¬(x∧y) == ¬x∨¬y (canonical refs must be equal).
	xy, _ := e.And(x, y)
	nxy, _ := e.Not(xy)
	ny, _ := e.Not(y)
	demorgan, _ := e.Or(nx, ny)
	check("De Morgan", nxy, demorgan)

	// Commutativity through the cache normalization.
	ab, _ := e.And(x, y)
	ba, _ := e.And(y, x)
	check("commutative and", ab, ba)
}

func TestImplies(t *testing.T) {
	e := New(3, 0)
	x, y := mustVar(t, e, 0), mustVar(t, e, 1)
	xy, _ := e.And(x, y)
	ok, err := e.Implies(xy, x)
	if err != nil || !ok {
		t.Fatal("x∧y ⇒ x")
	}
	ok, _ = e.Implies(x, xy)
	if ok {
		t.Fatal("x does not imply x∧y")
	}
}

func TestSatCount(t *testing.T) {
	e := New(4, 0)
	if got := e.SatCount(True); got != 16 {
		t.Fatalf("SatCount(⊤) = %v over 4 vars", got)
	}
	if got := e.SatCount(False); got != 0 {
		t.Fatalf("SatCount(⊥) = %v", got)
	}
	x := mustVar(t, e, 0)
	if got := e.SatCount(x); got != 8 {
		t.Fatalf("SatCount(x0) = %v, want 8", got)
	}
	y := mustVar(t, e, 3)
	xy, _ := e.And(x, y)
	if got := e.SatCount(xy); got != 4 {
		t.Fatalf("SatCount(x0∧x3) = %v, want 4", got)
	}
	or, _ := e.Or(x, y)
	if got := e.SatCount(or); got != 12 {
		t.Fatalf("SatCount(x0∨x3) = %v, want 12", got)
	}
}

func TestAnySatAndEval(t *testing.T) {
	e := New(4, 0)
	x, _ := e.Var(1)
	ny, _ := e.NVar(2)
	f, _ := e.And(x, ny)
	asg, ok := e.AnySat(f)
	if !ok || asg[1] != true || asg[2] != false {
		t.Fatalf("AnySat = %v %v", asg, ok)
	}
	if _, ok := e.AnySat(False); ok {
		t.Fatal("AnySat(⊥) must fail")
	}
	full := []bool{false, true, false, false}
	if !e.Eval(f, full) {
		t.Fatal("Eval should satisfy")
	}
	full[2] = true
	if e.Eval(f, full) {
		t.Fatal("Eval should reject")
	}
}

func TestCube(t *testing.T) {
	e := New(8, 0)
	cube, err := e.Cube(map[int]bool{0: true, 3: false, 7: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.SatCount(cube); got != 32 { // 2^(8-3)
		t.Fatalf("cube satcount = %v", got)
	}
	asg, _ := e.AnySat(cube)
	if asg[0] != true || asg[3] != false || asg[7] != true {
		t.Fatalf("cube assignment = %v", asg)
	}
	empty, err := e.Cube(nil)
	if err != nil || empty != True {
		t.Fatal("empty cube is ⊤")
	}
}

func TestAndAllOrAll(t *testing.T) {
	e := New(4, 0)
	x, y, z := mustVar(t, e, 0), mustVar(t, e, 1), mustVar(t, e, 2)
	all, err := e.AndAll(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.SatCount(all); got != 2 {
		t.Fatalf("AndAll satcount = %v", got)
	}
	any, _ := e.OrAll(x, y, z)
	if got := e.SatCount(any); got != 14 {
		t.Fatalf("OrAll satcount = %v", got)
	}
	empty, _ := e.AndAll()
	if empty != True {
		t.Fatal("empty AndAll = ⊤")
	}
	none, _ := e.OrAll()
	if none != False {
		t.Fatal("empty OrAll = ⊥")
	}
}

func TestNodeTableLimit(t *testing.T) {
	e := New(64, 8)
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		_, err = e.Var(i)
	}
	if !errors.Is(err, ErrNodeTableFull) {
		t.Fatalf("expected node table overflow, got %v", err)
	}
}

func TestGrowObserver(t *testing.T) {
	e := New(8, 0)
	total := 0
	e.SetGrowObserver(func(d int) { total += d })
	x, _ := e.Var(0)
	y, _ := e.Var(1)
	e.And(x, y)
	if total != e.NodeCount()-2 {
		t.Fatalf("observer saw %d, table has %d non-terminal", total, e.NodeCount()-2)
	}
}

// TestAgainstTruthTable cross-checks all operations against brute-force
// truth-table evaluation on random formulas.
func TestAgainstTruthTable(t *testing.T) {
	const nvars = 6
	e := New(nvars, 0)
	rng := rand.New(rand.NewSource(42))

	type formula struct {
		ref   Ref
		table [1 << nvars]bool
	}
	// Seed with literals.
	var pool []formula
	for i := 0; i < nvars; i++ {
		v := mustVar(t, e, i)
		var f formula
		f.ref = v
		for a := 0; a < 1<<nvars; a++ {
			f.table[a] = a&(1<<i) != 0
		}
		pool = append(pool, f)
	}
	for step := 0; step < 300; step++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		var f formula
		var err error
		switch step % 5 {
		case 0:
			f.ref, err = e.And(a.ref, b.ref)
			for i := range f.table {
				f.table[i] = a.table[i] && b.table[i]
			}
		case 1:
			f.ref, err = e.Or(a.ref, b.ref)
			for i := range f.table {
				f.table[i] = a.table[i] || b.table[i]
			}
		case 2:
			f.ref, err = e.Xor(a.ref, b.ref)
			for i := range f.table {
				f.table[i] = a.table[i] != b.table[i]
			}
		case 3:
			f.ref, err = e.Diff(a.ref, b.ref)
			for i := range f.table {
				f.table[i] = a.table[i] && !b.table[i]
			}
		case 4:
			f.ref, err = e.Not(a.ref)
			for i := range f.table {
				f.table[i] = !a.table[i]
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		// Verify against truth table via Eval and SatCount.
		count := 0.0
		asg := make([]bool, nvars)
		for i := 0; i < 1<<nvars; i++ {
			for v := 0; v < nvars; v++ {
				asg[v] = i&(1<<v) != 0
			}
			if e.Eval(f.ref, asg) != f.table[i] {
				t.Fatalf("step %d: Eval mismatch at assignment %06b", step, i)
			}
			if f.table[i] {
				count++
			}
		}
		if got := e.SatCount(f.ref); got != count {
			t.Fatalf("step %d: SatCount = %v, want %v", step, got, count)
		}
		pool = append(pool, f)
	}
}

func TestCanonicityQuick(t *testing.T) {
	// Property: two formulas with equal truth tables get identical refs.
	e := New(5, 0)
	f := func(aBits, bBits uint8) bool {
		// Build (a0∧a1)∨(b0∧¬b1) style formulas from bit patterns and
		// compare (p∨q) with ¬(¬p∧¬q).
		p, _ := e.Cube(map[int]bool{0: aBits&1 != 0, 1: aBits&2 != 0})
		q, _ := e.Cube(map[int]bool{2: bBits&1 != 0, 3: bBits&2 != 0})
		or, _ := e.Or(p, q)
		np, _ := e.Not(p)
		nq, _ := e.Not(q)
		nand, _ := e.And(np, nq)
		alt, _ := e.Not(nand)
		return or == alt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExists(t *testing.T) {
	e := New(4, 0)
	x, _ := e.Var(0)
	y, _ := e.Var(1)
	xy, _ := e.And(x, y)
	// ∃x.(x∧y) = y
	got, err := e.Exists(xy, 0)
	if err != nil || got != y {
		t.Fatalf("∃x.(x∧y) = %d, want y=%d (err %v)", got, y, err)
	}
	// ∃y over a formula not mentioning y is identity.
	got, _ = e.Exists(x, 1)
	if got != x {
		t.Fatal("quantifying an absent variable is identity")
	}
	// ∃x.(x∨y) = ⊤
	xoy, _ := e.Or(x, y)
	got, _ = e.Exists(xoy, 0)
	if got != True {
		t.Fatal("∃x.(x∨y) = ⊤")
	}
	if _, err := e.Exists(x, 9); err == nil {
		t.Fatal("out of range variable")
	}
	for _, term := range []Ref{True, False} {
		if got, _ := e.Exists(term, 0); got != term {
			t.Fatal("terminals are fixed points")
		}
	}
}

func TestSetVar(t *testing.T) {
	e := New(4, 0)
	x, _ := e.Var(0)
	nx, _ := e.Not(x)
	// Setting bit 0 to 1 on packets with bit0=0 yields packets with
	// bit0=1 (the write rule flips, not filters).
	got, err := e.SetVar(nx, 0, true)
	if err != nil || got != x {
		t.Fatalf("SetVar(¬x, x:=1) = %d, want x=%d", got, x)
	}
	// Count is preserved for full sets.
	if e.SatCount(got) != e.SatCount(nx) {
		t.Fatal("write rule must preserve the packet count")
	}
	// Setting preserves other constraints.
	y, _ := e.Var(1)
	f, _ := e.And(nx, y)
	got, _ = e.SetVar(f, 0, true)
	want, _ := e.And(x, y)
	if got != want {
		t.Fatalf("SetVar kept wrong constraints: %d want %d", got, want)
	}
}

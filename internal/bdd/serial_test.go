package bdd

import (
	"math/rand"
	"sync"
	"testing"
)

func TestSerializeRoundTripSameEngine(t *testing.T) {
	e := New(8, 0)
	x, _ := e.Var(0)
	y, _ := e.Var(3)
	ny, _ := e.Not(y)
	f, _ := e.And(x, ny)
	g, _ := e.Or(f, y)

	for _, r := range []Ref{False, True, x, f, g} {
		data := e.Serialize(r)
		got, err := e.Deserialize(data)
		if err != nil {
			t.Fatalf("deserialize: %v", err)
		}
		if got != r {
			t.Fatalf("round trip changed ref: %d -> %d", r, got)
		}
	}
}

func TestSerializeAcrossEngines(t *testing.T) {
	// The cross-worker path: build in engine A, transfer to B, verify the
	// function is identical by truth-table sampling.
	const nvars = 16
	a := New(nvars, 0)
	b := New(nvars, 0)
	rng := rand.New(rand.NewSource(9))

	f := True
	for i := 0; i < 10; i++ {
		v, _ := a.Var(rng.Intn(nvars))
		if rng.Intn(2) == 0 {
			v, _ = a.Not(v)
		}
		if rng.Intn(2) == 0 {
			f, _ = a.And(f, v)
		} else {
			f, _ = a.Or(f, v)
		}
	}
	got, err := b.Deserialize(a.Serialize(f))
	if err != nil {
		t.Fatal(err)
	}
	if a.SatCount(f) != b.SatCount(got) {
		t.Fatalf("satcount mismatch: %v vs %v", a.SatCount(f), b.SatCount(got))
	}
	asg := make([]bool, nvars)
	for trial := 0; trial < 2000; trial++ {
		for i := range asg {
			asg[i] = rng.Intn(2) == 0
		}
		if a.Eval(f, asg) != b.Eval(got, asg) {
			t.Fatalf("functions differ at %v", asg)
		}
	}
}

func TestDeserializeVarMismatch(t *testing.T) {
	a := New(8, 0)
	b := New(16, 0)
	x, _ := a.Var(0)
	if _, err := b.Deserialize(a.Serialize(x)); err == nil {
		t.Fatal("variable count mismatch must error")
	}
}

func TestDeserializeGarbage(t *testing.T) {
	e := New(8, 0)
	// The last row claims 2^40 nodes and carries none.
	for _, data := range [][]byte{nil, {1}, {0xff, 0xff, 0xff}, []byte("hello world"), uvarints(serialMagic, 8, 1<<40)} {
		if _, err := e.Deserialize(data); err == nil {
			t.Fatalf("garbage %v should fail", data)
		}
	}
	// Truncated valid prefix.
	x, _ := e.Var(2)
	y, _ := e.Var(5)
	f, _ := e.And(x, y)
	data := e.Serialize(f)
	if _, err := e.Deserialize(data[:len(data)-2]); err == nil {
		t.Fatal("truncated serialization should fail")
	}
}

func TestSerializeDeepChain(t *testing.T) {
	// A conjunction of every variable is one chain of nvars nodes — the
	// deepest possible BDD. The traversal in Serialize/topoVisit is
	// iterative, so this must round-trip without exhausting the stack no
	// matter how deep the chain gets.
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
	got, err := b.Deserialize(a.Serialize(acc))
	if err != nil {
		t.Fatal(err)
	}
	asg := make([]bool, nvars)
	for i := range asg {
		asg[i] = true
	}
	if !b.Eval(got, asg) {
		t.Fatal("all-true assignment must satisfy the cube")
	}
	asg[nvars/2] = false
	if b.Eval(got, asg) {
		t.Fatal("assignment with a false variable must not satisfy the cube")
	}

	// The set codec shares the same traversal; make sure it survives the
	// chain too and agrees with the per-ref codec.
	roots, err := b.DeserializeSet(a.SerializeSet([]Ref{acc, acc}))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots[0] != got || roots[1] != got {
		t.Fatalf("set round trip diverged: %v vs %d", roots, got)
	}
}

func TestSharedEngineSerializesAccess(t *testing.T) {
	s := NewShared(New(32, 0))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- s.Do(func(e *Engine) error {
				acc := True
				for i := 0; i < 32; i++ {
					v, err := e.Var(i)
					if err != nil {
						return err
					}
					if (g+i)%2 == 0 {
						acc, err = e.And(acc, v)
					} else {
						acc, err = e.Or(acc, v)
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.NodeCount() < 32 || s.ModelBytes() <= 0 {
		t.Fatal("shared engine accounting")
	}
}

package bdd

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// cachedResult is the pure function TestCacheNoTornHits caches: any hit
// that differs from it paired one write's operands with another's result.
func cachedResult(op uint8, ab uint64) Ref {
	return Ref(nodeHash(int32(op), Ref(ab>>32), Ref(uint32(ab))) >> 33)
}

// TestCacheNoTornHits hammers a floor-size cache from 8 goroutines with
// keys that all land on four slots, so every put races gets and other puts
// on its slot. A get must miss or return the result stored for its key.
func TestCacheNoTornHits(t *testing.T) {
	c := newOpCache(minCacheBits)
	type key struct {
		op uint8
		ab uint64
	}
	var keys []key
	for a := Ref(2); len(keys) < 32; a++ {
		for _, op := range []uint8{opAnd, opOr} {
			ab := cacheKey(a, a+1)
			if s := c.slot(op, ab); s == &c.slots[0] || s == &c.slots[1] || s == &c.slots[2] || s == &c.slots[3] {
				keys = append(keys, key{op, ab})
			}
		}
	}
	var wg sync.WaitGroup
	hits := make([]int, 8)
	for g := range hits {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200000; i++ {
				k := keys[rng.Intn(len(keys))]
				want := cachedResult(k.op, k.ab)
				if r, ok := c.get(k.op, k.ab); ok {
					if r != want {
						t.Errorf("get(op %d, a %d, b %d) = %d, want %d", k.op, k.ab>>32, uint32(k.ab), r, want)
						return
					}
					hits[g]++
				}
				c.put(k.op, k.ab, want)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	if total == 0 {
		t.Fatal("no get ever hit: the test exercised nothing")
	}
}

// wipeCache empties the engine's operation cache in place.
func wipeCache(e *Engine) {
	c := e.cache.Load()
	for i := range c.slots {
		c.slots[i].ab.Store(0)
		c.slots[i].meta.Store(0)
	}
}

// TestApplyAllocatesNothing checks that an operation which misses the
// cache, on tables that have already grown, makes no heap allocation.
func TestApplyAllocatesNothing(t *testing.T) {
	const ops = 10000
	e := New(32, 0)
	preds := make([]Ref, 150)
	for i := range preds {
		var err error
		if preds[i], err = e.PrefixCube(0, 32, uint32(i)*2654435761, 8+i%17); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	run := func() {
		wipeCache(e)
		n := 0
		for i := range preds {
			for j := i + 1; j < len(preds) && n < ops; j++ {
				if _, err = e.And(preds[i], preds[j]); err != nil {
					return
				}
				if _, err = e.Or(preds[i], preds[j]); err != nil {
					return
				}
				n += 2
			}
		}
	}
	run() // every result node now exists and the tables have grown
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, run) / ops; avg >= 0.01 {
		t.Fatalf("%.3f allocations per cache-missing operation, want < 0.01", avg)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// growthWorkload is a union of FIB-like prefixes large enough that building
// it on a fresh engine rehashes every stripe several times and grows the
// cache from the floor to the ceiling.
func growthWorkload(e *Engine) (Ref, error) {
	acc := False
	for i := 0; i < 6000; i++ {
		p, err := e.PrefixCube(0, 32, uint32(i)*2654435761, 24+i%9)
		if err != nil {
			return False, err
		}
		if acc, err = e.Or(acc, p); err != nil {
			return False, err
		}
	}
	return acc, nil
}

// TestConcurrentMkAcrossGrowth builds one function from 8 goroutines on a
// fresh engine, so stripe rehashes and cache resizes race with probes; the
// table must stay canonical: one ref, the sequential node count, and after
// a collection a rebuild that serializes as the sequential build does.
func TestConcurrentMkAcrossGrowth(t *testing.T) {
	seq := New(32, 0)
	want, err := growthWorkload(seq)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NodeCount() < 50000 {
		t.Fatalf("workload builds %d nodes, want ≥ 50000", seq.NodeCount())
	}
	wantBytes := seq.SerializeSet([]Ref{want})

	e := New(32, 0)
	parallel := func() Ref {
		refs := make([]Ref, 8)
		var wg sync.WaitGroup
		for g := range refs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var err error
				if refs[g], err = growthWorkload(e); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for g, r := range refs {
			if r != refs[0] {
				t.Fatalf("goroutine %d built ref %d, goroutine 0 built %d", g, r, refs[0])
			}
		}
		return refs[0]
	}
	r := parallel()
	if e.NodeCount() != seq.NodeCount() {
		t.Fatalf("concurrent NodeCount %d != sequential %d", e.NodeCount(), seq.NodeCount())
	}
	if bits := 64 - int(e.cache.Load().shift); bits != maxCacheBits {
		t.Fatalf("cache has 2^%d slots after %d nodes, want 2^%d", bits, e.NodeCount(), maxCacheBits)
	}
	if !bytes.Equal(e.SerializeSet([]Ref{r}), wantBytes) {
		t.Fatal("concurrent build serializes differently from the sequential one")
	}
	kept := e.GC([]Ref{r})(r)
	if again := parallel(); again != kept {
		t.Fatalf("rebuild after GC gave ref %d, the survivor is %d", again, kept)
	}
	if !bytes.Equal(e.SerializeSet([]Ref{kept}), wantBytes) {
		t.Fatal("rebuild after GC serializes differently from the sequential build")
	}
}

// BenchmarkColdApply builds FIB predicates on a fresh engine per
// iteration: prefixes longest first, each carved out of the ones already
// matched (Diff) and folded into them (Or). Nearly every operation misses
// the cache and makes nodes, where BenchmarkParallelApply is warm hits.
func BenchmarkColdApply(b *testing.B) {
	const prefixes = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(32, 0)
		covered := False
		for p := 0; p < prefixes; p++ {
			pfx, err := e.PrefixCube(0, 32, uint32(p)*2654435761, 32-p*24/prefixes)
			if err != nil {
				b.Fatal(err)
			}
			if _, err = e.Diff(pfx, covered); err != nil {
				b.Fatal(err)
			}
			if covered, err = e.Or(covered, pfx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

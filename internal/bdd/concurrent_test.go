package bdd

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// buildWorkload deterministically builds one moderately-sized predicate per
// worker index: a disjunction of cubes over a 24-variable space, mixed with
// Not/Exists/Xor so every cached operation type is exercised.
func buildWorkload(t testing.TB, e *Engine, worker int) Ref {
	acc := False
	for c := 0; c < 40; c++ {
		cube := True
		for v := 0; v < 24; v++ {
			// A cheap deterministic pseudo-random bit pattern.
			h := (worker*2654435761 + c*40503 + v*9973) >> 3
			switch h % 3 {
			case 0:
				lit, err := e.Var(v)
				if err != nil {
					t.Fatal(err)
				}
				cube, err = e.And(cube, lit)
				if err != nil {
					t.Fatal(err)
				}
			case 1:
				lit, err := e.NVar(v)
				if err != nil {
					t.Fatal(err)
				}
				cube, err = e.And(cube, lit)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		var err error
		acc, err = e.Or(acc, cube)
		if err != nil {
			t.Fatal(err)
		}
	}
	neg, err := e.Not(acc)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.Exists(acc, worker%24)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.Xor(neg, ex)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Or(acc, x)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConcurrentHammer drives one shared engine from many goroutines — the
// exact pattern ComputeDP and DPRound use after the parallelization — and
// checks every result is byte-identical to a sequential single-goroutine
// build of the same function. Run under -race this also proves the striped
// unique table, sharded cache, and chunked allocation are data-race-free.
func TestConcurrentHammer(t *testing.T) {
	const workers = 12

	// Reference: sequential builds in a private engine each.
	want := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		ref := New(24, 0)
		want[i] = fingerprint(ref, buildWorkload(t, ref, i))
	}

	for round := 0; round < 4; round++ {
		e := New(24, 0)
		got := make([][]byte, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := buildWorkload(t, e, i)
				got[i] = fingerprint(e, r)
			}(i)
		}
		wg.Wait()
		for i := 0; i < workers; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round %d worker %d: concurrent result differs from sequential build", round, i)
			}
		}
		// The set of nodes ever created is the union of the issued
		// operations' result DAGs — independent of interleaving.
		seq := New(24, 0)
		for i := 0; i < workers; i++ {
			buildWorkload(t, seq, i)
		}
		if e.NodeCount() != seq.NodeCount() {
			t.Fatalf("round %d: concurrent NodeCount %d != sequential %d", round, e.NodeCount(), seq.NodeCount())
		}
	}
}

// TestConcurrentDeserialize re-encodes serialized packets into one engine
// from many goroutines against the concurrent node table.
func TestConcurrentDeserialize(t *testing.T) {
	src := New(24, 0)
	payloads := make([][]byte, 16)
	for i := range payloads {
		payloads[i] = fingerprint(src, buildWorkload(t, src, i))
	}

	dst := New(24, 0)
	refs := make([]Ref, len(payloads))
	var wg sync.WaitGroup
	for i := range payloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := dst.DeserializeSet(payloads[i])
			if err != nil {
				t.Error(err)
				return
			}
			refs[i] = r[0]
		}(i)
	}
	wg.Wait()
	for i, r := range refs {
		if !bytes.Equal(fingerprint(dst, r), payloads[i]) {
			t.Fatalf("payload %d: round trip through concurrent engine changed the function", i)
		}
	}
}

// TestConcurrentMaxNodes checks the node limit is enforced exactly under
// concurrent allocation: either an op errors with ErrNodeTableFull or the
// final count respects the cap — never an overshoot.
func TestConcurrentMaxNodes(t *testing.T) {
	const limit = 200
	e := New(24, limit)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for c := 0; c < 64; c++ {
				cube := True
				for v := 0; v < 24; v++ {
					if (i*64+c)>>(v%8)&1 == 1 {
						lit, err := e.Var(v)
						if err != nil {
							return // table full — expected
						}
						cube, err = e.And(cube, lit)
						if err != nil {
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if e.NodeCount() > limit {
		t.Fatalf("NodeCount %d exceeds limit %d", e.NodeCount(), limit)
	}
}

// TestGCAfterConcurrentBuild runs a stop-the-world GC after a parallel
// build and checks the survivors are intact.
func TestGCAfterConcurrentBuild(t *testing.T) {
	e := New(24, 0)
	const workers = 8
	refs := make([]Ref, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			refs[i] = buildWorkload(t, e, i)
		}(i)
	}
	wg.Wait()

	before := make([][]byte, workers)
	for i, r := range refs {
		before[i] = fingerprint(e, r)
	}
	// Keep only the even workers' roots.
	var roots []Ref
	for i := 0; i < workers; i += 2 {
		roots = append(roots, refs[i])
	}
	remap := e.GC(roots)
	for i := 0; i < workers; i += 2 {
		nr := remap(refs[i])
		if got := fingerprint(e, nr); !bytes.Equal(got, before[i]) {
			t.Fatalf("worker %d: function changed across GC", i)
		}
	}

	// And the engine keeps working in parallel after the GC.
	wg = sync.WaitGroup{}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := buildWorkload(t, e, i)
			if got := fingerprint(e, r); !bytes.Equal(got, before[i]) {
				t.Errorf("worker %d: post-GC rebuild differs", i)
			}
		}(i)
	}
	wg.Wait()
}

// BenchmarkParallelApply runs b.N workload builds on one shared engine,
// split across exactly the named number of goroutines, so the rows show
// how the engine scales with concurrent callers. Goroutine g starts at
// workload g, so concurrent builds are of different predicates.
func BenchmarkParallelApply(b *testing.B) {
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", procs), func(b *testing.B) {
			e := New(24, 0)
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				n := b.N / procs
				if g < b.N%procs {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						buildWorkload(b, e, (g+i)%16)
					}
				}()
			}
			wg.Wait()
		})
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

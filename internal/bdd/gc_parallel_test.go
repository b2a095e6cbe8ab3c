package bdd

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestGCDeepChain mirrors TestSerializeDeepChain for the collector: a
// 200k-node chain is the deepest possible BDD, and the old recursive mark
// would blow the goroutine stack on it. The iterative marker must collect
// it — sequentially and in parallel — without losing the function.
func TestGCDeepChain(t *testing.T) {
	const nvars = 200_000
	for _, procs := range []int{1, 8} {
		e := New(nvars, 0)
		e.SetGCParallelism(procs)
		acc := True
		for i := nvars - 1; i >= 0; i-- { // bottom-up keeps construction linear
			v, err := e.Var(i)
			if err != nil {
				t.Fatal(err)
			}
			acc, err = e.And(v, acc)
			if err != nil {
				t.Fatal(err)
			}
		}
		// Some garbage so the sweep actually moves the chain.
		for i := 0; i < 64; i++ {
			v, _ := e.Var(i)
			w, _ := e.Var(nvars - 1 - i)
			if _, err := e.Or(v, w); err != nil {
				t.Fatal(err)
			}
		}
		before := e.NodeCount()
		remap := e.GC([]Ref{acc})
		acc = remap(acc)
		if e.NodeCount() >= before {
			t.Fatalf("procs=%d: GC freed nothing (%d -> %d)", procs, before, e.NodeCount())
		}
		// The chain must still be the conjunction of all variables.
		asg := make([]bool, nvars)
		for i := range asg {
			asg[i] = true
		}
		if !e.Eval(acc, asg) {
			t.Fatalf("procs=%d: all-true assignment no longer satisfies the chain", procs)
		}
		asg[nvars/2] = false
		if e.Eval(acc, asg) {
			t.Fatalf("procs=%d: chain satisfied with a false variable", procs)
		}
	}
}

// TestGCParallelMarkMatchesSequential collects identical workloads with a
// sequential and a maximally parallel marker: the surviving table, the
// remapped roots, and their serializations must be identical — the sweep's
// ascending-id order makes the result independent of mark interleaving.
func TestGCParallelMarkMatchesSequential(t *testing.T) {
	// Full 24-variable cubes are 24-node chains with little sharing, so a
	// couple thousand of them push the table past gcSeqThreshold and the
	// parallel marker actually engages.
	mkCube := func(e *Engine, i int) Ref {
		cube := True
		for v := 0; v < 24; v++ {
			// Low levels encode i directly (distinct cubes, distinct
			// suffixes, so sharing stays low and the table grows).
			h := i >> v
			if v >= 11 {
				h = (i * 2654435761) >> v
			}
			var lit Ref
			var err error
			if h&1 == 0 {
				lit, err = e.Var(v)
			} else {
				lit, err = e.NVar(v)
			}
			if err != nil {
				t.Fatal(err)
			}
			cube, err = e.And(cube, lit)
			if err != nil {
				t.Fatal(err)
			}
		}
		return cube
	}
	build := func(procs int) (*Engine, []Ref) {
		e := New(24, 0)
		e.SetGCParallelism(procs)
		var roots []Ref
		acc := False
		for i := 0; i < 2000; i++ {
			c := mkCube(e, i)
			var err error
			acc, err = e.Or(acc, c)
			if err != nil {
				t.Fatal(err)
			}
			if i%40 == 0 {
				roots = append(roots, acc)
			}
		}
		for i := 0; i < 10; i++ {
			r := buildWorkload(t, e, i)
			if i%2 == 0 {
				roots = append(roots, r)
			}
		}
		if e.NodeCount() < gcSeqThreshold {
			t.Fatalf("test workload too small to engage the parallel marker: %d nodes", e.NodeCount())
		}
		return e, roots
	}
	seq, seqRoots := build(1)
	par, parRoots := build(8)
	seqRemap := seq.GC(seqRoots)
	parRemap := par.GC(parRoots)
	if seq.NodeCount() != par.NodeCount() {
		t.Fatalf("NodeCount differs: sequential %d vs parallel %d", seq.NodeCount(), par.NodeCount())
	}
	for i := range seqRoots {
		sr, pr := seqRemap(seqRoots[i]), parRemap(parRoots[i])
		if sr != pr {
			t.Fatalf("root %d remapped differently: %d vs %d", i, sr, pr)
		}
		if !bytes.Equal(fingerprint(seq, sr), fingerprint(par, pr)) {
			t.Fatalf("root %d serialization differs across mark parallelism", i)
		}
	}
	if seq.GCStats().LastMarkProcs != 1 {
		t.Fatalf("sequential engine used %d mark procs", seq.GCStats().LastMarkProcs)
	}
	if p := par.GCStats().LastMarkProcs; p != 8 {
		t.Fatalf("parallel engine used %d mark procs, want 8", p)
	}
}

// TestGCRelocatedCacheCorrect verifies the relocation property directly:
// after a collection, operations answered from relocated cache entries must
// equal a from-scratch recomputation in a fresh engine.
func TestGCRelocatedCacheCorrect(t *testing.T) {
	e := New(24, 0)
	var roots []Ref
	for i := 0; i < 8; i++ {
		roots = append(roots, buildWorkload(t, e, i))
	}
	remap := e.GC(roots)
	st := e.GCStats()
	if st.CacheRelocated == 0 {
		t.Fatal("no cache entries were relocated — the workload certainly populated the cache")
	}
	for i := range roots {
		roots[i] = remap(roots[i])
	}
	// Redo pairwise ops post-GC (hitting relocated entries where they
	// survived) and compare against a cold engine.
	fresh := New(24, 0)
	var freshRoots []Ref
	for i := 0; i < 8; i++ {
		freshRoots = append(freshRoots, buildWorkload(t, fresh, i))
	}
	for i := 0; i < len(roots); i++ {
		for j := i + 1; j < len(roots); j++ {
			got, err := e.And(roots[i], roots[j])
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.And(freshRoots[i], freshRoots[j])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fingerprint(e, got), fingerprint(fresh, want)) {
				t.Fatalf("And(%d,%d) wrong after cache relocation", i, j)
			}
			got, err = e.Xor(roots[i], roots[j])
			if err != nil {
				t.Fatal(err)
			}
			want, err = fresh.Xor(freshRoots[i], freshRoots[j])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fingerprint(e, got), fingerprint(fresh, want)) {
				t.Fatalf("Xor(%d,%d) wrong after cache relocation", i, j)
			}
		}
		got, err := e.Exists(roots[i], i%24)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Exists(freshRoots[i], i%24)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fingerprint(e, got), fingerprint(fresh, want)) {
			t.Fatalf("Exists(%d) wrong after cache relocation", i)
		}
	}
}

// TestGCStatsPhases sanity-checks the exported telemetry: phases sum to the
// pause, counters accumulate across runs.
func TestGCStatsPhases(t *testing.T) {
	e := New(24, 0)
	r := buildWorkload(t, e, 2)
	e.GC([]Ref{r})
	st := e.GCStats()
	if st.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", st.Runs)
	}
	if st.LastLive != e.NodeCount() {
		t.Fatalf("LastLive %d != NodeCount %d", st.LastLive, e.NodeCount())
	}
	if st.LastPause <= 0 || st.TotalPause != st.LastPause {
		t.Fatalf("pause accounting wrong: last %v total %v", st.LastPause, st.TotalPause)
	}
	sum := st.LastMark + st.LastSweep + st.LastRelocate
	if diff := st.LastPause - sum; diff < 0 || diff > time.Millisecond {
		t.Fatalf("phases (%v) do not sum to pause (%v)", sum, st.LastPause)
	}
	e.GC(nil)
	if st2 := e.GCStats(); st2.Runs != 2 || st2.TotalPause <= st.TotalPause {
		t.Fatalf("second collection not accumulated: %+v", st2)
	}
}

// BenchmarkGC measures a full collection (mark + sweep + relocate) over a
// large live table at several mark parallelism levels. After the first
// iteration nothing is garbage, so steady-state iterations time marking and
// sweeping a constant table — the pause a worker pays at a trigger site.
// On a single-core host the procs>1 rows show fan-out overhead, not a win;
// run on a multi-core machine to see the mark phase shrink (the sweep is
// single-threaded by design, so Amdahl caps the total-pause drop at the
// mark share).
func BenchmarkGC(b *testing.B) {
	build := func(procs int) (*Engine, []Ref) {
		e := New(24, 0)
		e.SetGCParallelism(procs)
		var roots []Ref
		acc := False
		for i := 0; i < 12000; i++ {
			cube := True
			for v := 0; v < 24; v++ {
				h := i >> v
				if v >= 14 {
					h = (i * 2654435761) >> v
				}
				var lit Ref
				if h&1 == 0 {
					lit, _ = e.Var(v)
				} else {
					lit, _ = e.NVar(v)
				}
				cube, _ = e.And(cube, lit)
			}
			var err error
			acc, err = e.Or(acc, cube)
			if err != nil {
				b.Fatal(err)
			}
			if i%100 == 0 {
				roots = append(roots, acc)
			}
		}
		return e, roots
	}
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			e, roots := build(procs)
			b.ReportMetric(float64(e.NodeCount()), "live-nodes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				remap := e.GC(roots)
				for j := range roots {
					roots[j] = remap(roots[j])
				}
			}
			b.StopTimer()
			st := e.GCStats()
			b.ReportMetric(st.LastMark.Seconds()*1e9, "mark-ns")
			b.ReportMetric(st.LastSweep.Seconds()*1e9, "sweep-ns")
		})
	}
}

// TestParallelMarkRaceHammer exercises the work-stealing marker under -race:
// repeated collections with a wide marker pool over a table built by many
// goroutines, interleaved with parallel rebuilds between collections (the
// engine contract: operations and GC never overlap).
func TestParallelMarkRaceHammer(t *testing.T) {
	e := New(24, 0)
	e.SetGCParallelism(8)
	const workers = 8
	refs := make([]Ref, workers)
	rebuild := func() {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				refs[i] = buildWorkload(t, e, i)
			}(i)
		}
		wg.Wait()
	}
	rebuild()
	want := make([][]byte, workers)
	for i, r := range refs {
		want[i] = fingerprint(e, r)
	}
	for round := 0; round < 6; round++ {
		// Alternate which roots survive so every collection both frees and
		// relocates.
		var roots []Ref
		for i := round % 2; i < workers; i += 2 {
			roots = append(roots, refs[i])
		}
		remap := e.GC(roots)
		for i := round % 2; i < workers; i += 2 {
			refs[i] = remap(refs[i])
			if !bytes.Equal(fingerprint(e, refs[i]), want[i]) {
				t.Fatalf("round %d: function %d changed across parallel-mark GC", round, i)
			}
		}
		rebuild()
		for i := 0; i < workers; i++ {
			if !bytes.Equal(fingerprint(e, refs[i]), want[i]) {
				t.Fatalf("round %d: rebuild %d differs after GC", round, i)
			}
		}
	}
	if st := e.GCStats(); st.Runs != 6 || st.CacheRelocated == 0 {
		t.Fatalf("hammer stats: %+v", st)
	}
}

package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"s2/internal/bdd"
	"s2/internal/dataplane"
	"s2/internal/route"
)

func TestRunIndexedCoversAllIndices(t *testing.T) {
	for _, procs := range []int{1, 2, 8, 100} {
		var hits [57]atomic.Int32
		if err := runIndexed(procs, len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("procs=%d: index %d ran %d times", procs, i, got)
			}
		}
	}
}

func TestRunIndexedSequentialOrder(t *testing.T) {
	var order []int
	if err := runIndexed(1, 5, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("procs=1 must run in index order, got %v", order)
		}
	}
}

func TestRunIndexedErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	// Sequential: fail-fast at the first failing index.
	ran := 0
	err := runIndexed(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if ran != 4 {
		t.Fatalf("sequential fail-fast should stop after index 3, ran %d tasks", ran)
	}
	// Parallel: the lowest-index error observed wins, so a deterministic
	// single failure reports the same error regardless of pool size.
	err = runIndexed(8, 100, func(i int) error {
		if i == 42 {
			return fmt.Errorf("failed at %d: %w", i, boom)
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
	if !strings.Contains(err.Error(), "failed at 42") {
		t.Fatalf("want the index-42 error, got %v", err)
	}
	if err := runIndexed(4, 0, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0 must be a no-op, got %v", err)
	}
}

// ribsFingerprint renders RIBs into one canonical byte string: nodes
// sorted, prefixes in Walk (sorted) order, routes in installed order.
func ribsFingerprint(ribs map[string]*route.RIB) string {
	names := make([]string, 0, len(ribs))
	for n := range ribs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "node %s\n", n)
		for _, p := range ribs[n].Prefixes() {
			fmt.Fprintf(&b, "  %s\n", p)
			for _, r := range ribs[n].Get(p) {
				fmt.Fprintf(&b, "    %s\n", r)
			}
		}
	}
	return b.String()
}

// setBytes is r's canonical encoding: byte-identical for equal sets
// regardless of internal ref numbering, and across engines of one layout.
func setBytes(e *bdd.Engine, r bdd.Ref) []byte { return e.SerializeSet([]bdd.Ref{r}) }

// checkFingerprint renders an all-pairs verification result into a
// canonical byte string: reachability coverage, every violation's full
// detail, the per-state packet sets, and each destination's arrival set
// (serialized — the engine's canonical encoding is byte-identical for
// equal sets regardless of internal ref numbering). The raw outcome
// *count* is deliberately absent: cross-worker delivery timing decides
// whether a wavefront arrives as one event or several, so the count
// varies run to run even though the merged sets never do.
func checkFingerprint(c *Controller, res *AllPairsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sources=%d dests=%d\n", res.Sources, res.Dests)
	for _, st := range []dataplane.FinalState{dataplane.Arrive, dataplane.Exit, dataplane.Blackhole, dataplane.Loop} {
		fmt.Fprintf(&b, "state %d %x\n", st, setBytes(c.engine, res.Collector.StateSet(st)))
	}
	for _, dest := range c.PrefixOwners() {
		fmt.Fprintf(&b, "arrived %s %x\n", dest, setBytes(c.engine, res.Collector.Arrived(dest)))
	}
	unreached := append([]string(nil), res.Unreached...)
	sort.Strings(unreached)
	fmt.Fprintf(&b, "unreached=%v\n", unreached)
	vios := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		vios = append(vios, v.String())
	}
	sort.Strings(vios)
	for _, v := range vios {
		fmt.Fprintf(&b, "violation %s\n", v)
	}
	return b.String()
}

// TestParallelRunIsByteIdentical is the determinism contract for the
// multi-core hot path: a run with per-worker goroutine pools must produce
// byte-identical RIBs and verification outcomes to the sequential one. FIB
// equality is observed through the all-pairs symbolic traversal: every
// forwarding entry participates in the outcome sets the fingerprints
// cover.
func TestParallelRunIsByteIdentical(t *testing.T) {
	run := func(procs int, shards int) (string, string) {
		snap, texts := fatTreeSnap(t, 4)
		c := newS2(t, snap, texts, Options{
			Workers:     3,
			Shards:      shards,
			Seed:        1,
			KeepRIBs:    true,
			Parallelism: procs,
		})
		defer c.Close()
		res := runFull(t, c)
		ribs, err := c.CollectRIBs()
		if err != nil {
			t.Fatal(err)
		}
		return ribsFingerprint(ribs), checkFingerprint(c, res)
	}

	for _, shards := range []int{1, 2} {
		seqRIBs, seqCheck := run(1, shards)
		if !strings.Contains(seqRIBs, "node edge-0-0") || !strings.Contains(seqRIBs, "/") {
			t.Fatalf("shards=%d: sequential fingerprint looks empty:\n%.200s", shards, seqRIBs)
		}
		parRIBs, parCheck := run(8, shards)
		if seqRIBs != parRIBs {
			t.Errorf("shards=%d: RIBs differ between procs=1 and procs=8", shards)
		}
		if seqCheck != parCheck {
			t.Errorf("shards=%d: verification outcomes differ:\nseq:\n%s\npar:\n%s", shards, seqCheck, parCheck)
		}
	}
}

// TestGCStressRunIsByteIdentical extends the determinism contract to the
// collector: results must be byte-identical whether GCs are rare (adaptive
// pacing) or constant (stress mode forces a collection at nearly every
// trigger site), with a sequential or a parallel mark. GC placement may
// change *when* nodes are rebuilt, never *what* the verification computes.
func TestGCStressRunIsByteIdentical(t *testing.T) {
	run := func(k, procs int, stress bool) (string, string) {
		snap, texts := fatTreeSnap(t, k)
		c := newS2(t, snap, texts, Options{
			Workers:     3,
			Shards:      2,
			Seed:        1,
			KeepRIBs:    true,
			Parallelism: procs,
			GCStress:    stress,
		})
		defer c.Close()
		res := runFull(t, c)
		ribs, err := c.CollectRIBs()
		if err != nil {
			t.Fatal(err)
		}
		return ribsFingerprint(ribs), checkFingerprint(c, res)
	}

	type base struct{ ribs, check string }
	bases := map[int]base{}
	for _, cfg := range []struct {
		name   string
		k      int
		procs  int
		stress bool
	}{
		{"stress procs=1", 4, 1, true},
		{"stress procs=8", 4, 8, true},
		// k=6 gives a worker 270 slots in a round, so at procs=1 a round
		// spans several chunks and collects at their boundaries.
		{"k=6 stress procs=1", 6, 1, true},
	} {
		b, ok := bases[cfg.k]
		if !ok {
			b.ribs, b.check = run(cfg.k, 1, false)
			if !strings.Contains(b.ribs, "node edge-0-0") {
				t.Fatalf("k=%d baseline fingerprint looks empty:\n%.200s", cfg.k, b.ribs)
			}
			bases[cfg.k] = b
		}
		ribs, check := run(cfg.k, cfg.procs, cfg.stress)
		if ribs != b.ribs {
			t.Errorf("%s: RIBs differ from the default-collector baseline", cfg.name)
		}
		if check != b.check {
			t.Errorf("%s: verification outcomes differ:\nbase:\n%s\ngot:\n%s", cfg.name, b.check, check)
		}
	}
}

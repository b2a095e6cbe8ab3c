package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"s2/internal/bgp"
	"s2/internal/config"
	"s2/internal/ospf"
	"s2/internal/route"
	"s2/internal/sidecar"
)

// convergeCP drives the workers' Gather/Apply fixed point directly —
// BeginShard, then rounds until quiescent — WITHOUT the controller's
// EndShard, which strips the full-attribute RIBs the exporters serve
// from. The cursor tests probe exporters in their converged, still-live
// state, exactly what a mid-iteration pull sees. round, if set, runs after
// every round's apply.
func convergeCP(t *testing.T, c *Controller, gather func(*Worker) error, apply func(*Worker) (sidecar.ApplyReply, error), round func()) {
	t.Helper()
	if err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.locals {
		if err := w.BeginShard(sidecar.BeginShardRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; ; n++ {
		if n > 64 {
			t.Fatal("control plane did not converge in 64 rounds")
		}
		for _, w := range c.locals {
			if err := gather(w); err != nil {
				t.Fatal(err)
			}
		}
		changed := false
		for _, w := range c.locals {
			reply, err := apply(w)
			if err != nil {
				t.Fatal(err)
			}
			changed = changed || reply.Changed
		}
		if round != nil {
			round()
		}
		if !changed {
			return
		}
	}
}

// pullBGP issues one pull as a batch of one, the unit every other batch
// is checked against.
func pullBGP(w *Worker, exporter, puller string, since uint64, seen bool) ([]bgp.Advertisement, uint64, bool, error) {
	replies, err := w.PullBGPBatch([]sidecar.PullRequest{{Exporter: exporter, Puller: puller, Since: since, Seen: seen}})
	if err != nil {
		return nil, 0, false, err
	}
	return replies[0].Items, replies[0].Version, replies[0].Fresh, nil
}

// pullLSAs is the OSPF analogue of pullBGP.
func pullLSAs(w *Worker, exporter, puller string, since uint64, seen bool) ([]*ospf.LSA, uint64, bool, error) {
	replies, err := w.PullLSABatch([]sidecar.PullRequest{{Exporter: exporter, Puller: puller, Since: since, Seen: seen}})
	if err != nil {
		return nil, 0, false, err
	}
	return replies[0].Items, replies[0].Version, replies[0].Fresh, nil
}

// exportHistory holds, per (exporter, puller) session, the full export —
// an unseen pull — the exporter served at each version it reached.
type exportHistory map[[2]string]map[uint64][]bgp.Advertisement

// pullCursorWorker converges a 2-worker FatTree BGP control plane and
// returns a local worker plus one (exporter, puller) pair that exports
// at least one advertisement: the cursor tests need a real BGP session,
// because ExportsTo only speaks to configured neighbors. The history
// records every local session's full export after every round.
func pullCursorWorker(t *testing.T) (*Worker, string, string, exportHistory) {
	t.Helper()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{Workers: 2, Seed: 1, Parallelism: 1})
	t.Cleanup(func() { c.Close() })
	hist := exportHistory{}
	convergeCP(t, c,
		func(w *Worker) error { return w.GatherBGP() },
		func(w *Worker) (sidecar.ApplyReply, error) { return w.ApplyBGP() },
		func() {
			for _, w := range c.locals {
				if w == nil {
					continue
				}
				for exporter := range w.bgpProcs {
					for _, dest := range w.adjIndex[exporter] {
						advs, ver, _, err := pullBGP(w, exporter, dest.Node, 0, false)
						if err != nil {
							t.Fatal(err)
						}
						key := [2]string{exporter, dest.Node}
						if hist[key] == nil {
							hist[key] = map[uint64][]bgp.Advertisement{}
						}
						hist[key][ver] = advs
					}
				}
			}
		})
	for _, w := range c.locals {
		if w == nil {
			continue
		}
		for exporter := range w.bgpProcs {
			for _, dest := range w.adjIndex[exporter] {
				advs, _, fresh, err := pullBGP(w, exporter, dest.Node, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				if fresh && len(advs) > 0 {
					return w, exporter, dest.Node, hist
				}
			}
		}
	}
	t.Fatal("no exporting (exporter, puller) pair found")
	return nil, "", "", nil
}

// patchAdvs applies a delta to the routes of a full export, as ImportFrom
// patches an Adj-RIB-In: a route replaces its prefix's entry and a
// withdrawal removes it.
func patchAdvs(full, delta []bgp.Advertisement) map[route.Prefix]*route.Route {
	out := map[route.Prefix]*route.Route{}
	for _, advs := range [][]bgp.Advertisement{full, delta} {
		for _, a := range advs {
			if a.Withdrawn {
				delete(out, a.Route.Prefix)
			} else {
				out[a.Route.Prefix] = a.Route
			}
		}
	}
	return out
}

func sameRoutes(a, b map[route.Prefix]*route.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for pfx, r := range a {
		if o, ok := b[pfx]; !ok || !r.Equal(o) {
			return false
		}
	}
	return true
}

// TestPullBGPCursorSemantics pins the since/seen delta-pull contract the
// gather phase relies on: a pull at the current version with seen=true is
// a cheap no-op, an unseen cursor gets the full export, and a stale cursor
// gets a delta that, applied to the full export at its version, rebuilds
// the current one.
func TestPullBGPCursorSemantics(t *testing.T) {
	w, exporter, puller, hist := pullCursorWorker(t)

	advs, ver, fresh, err := pullBGP(w, exporter, puller, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh || len(advs) == 0 || ver == 0 {
		t.Fatalf("initial pull: fresh=%v advs=%d ver=%d, want a fresh export", fresh, len(advs), ver)
	}

	// Up-to-date cursor: nothing changed, so no payload and no freshness.
	got, ver2, fresh2, err := pullBGP(w, exporter, puller, ver, true)
	if err != nil {
		t.Fatal(err)
	}
	if fresh2 || got != nil || ver2 != ver {
		t.Fatalf("up-to-date pull: fresh=%v advs=%d ver=%d, want stale no-op at %d", fresh2, len(got), ver2, ver)
	}

	// seen=false means the puller lost its state (shard reset, worker
	// recovery): the exporter must re-send even at the current version.
	got, _, fresh3, err := pullBGP(w, exporter, puller, ver, false)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh3 || !reflect.DeepEqual(got, advs) {
		t.Fatalf("seen=false pull: fresh=%v advs=%d, want full re-export of %d", fresh3, len(got), len(advs))
	}

	// A stale cursor (older version) gets the delta since that version.
	past := hist[[2]string{exporter, puller}]
	if len(past) < 2 {
		t.Fatalf("exporter %s reached %d versions, want an older one to pull from", exporter, len(past))
	}
	for since, old := range past {
		if since == ver {
			continue
		}
		delta, _, fresh4, err := pullBGP(w, exporter, puller, since, true)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh4 || len(delta) == 0 {
			t.Fatalf("stale-cursor pull since %d: fresh=%v advs=%d, want a delta", since, fresh4, len(delta))
		}
		if !sameRoutes(patchAdvs(old, delta), patchAdvs(advs, nil)) {
			t.Fatalf("stale-cursor pull since %d: the delta applied to that version's export is not the full export", since)
		}
	}

	if _, _, _, err := pullBGP(w, "no-such-node", puller, 0, false); err == nil {
		t.Fatal("pull from a non-hosted exporter must error")
	}
}

// TestPullBGPBatchMatchesSingles pins the batch RPC's contract: each
// entry is served exactly like the equivalent batch of one, in request
// order, including the cursor semantics.
func TestPullBGPBatchMatchesSingles(t *testing.T) {
	w, exporter, puller, _ := pullCursorWorker(t)
	advs, ver, _, err := pullBGP(w, exporter, puller, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	delta, _, _, err := pullBGP(w, exporter, puller, ver-1, true)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []sidecar.PullRequest{
		{Exporter: exporter, Puller: puller, Since: 0, Seen: false},
		{Exporter: exporter, Puller: puller, Since: ver, Seen: true},
		{Exporter: exporter, Puller: puller, Since: ver - 1, Seen: true},
	}
	replies, err := w.PullBGPBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != len(reqs) {
		t.Fatalf("got %d replies for %d requests", len(replies), len(reqs))
	}
	if !replies[0].Fresh || !reflect.DeepEqual(replies[0].Items, advs) {
		t.Fatalf("batch[0] should match the initial single pull")
	}
	if replies[1].Fresh || replies[1].Items != nil || replies[1].Version != ver {
		t.Fatalf("batch[1] should be a stale no-op, got fresh=%v ver=%d", replies[1].Fresh, replies[1].Version)
	}
	if !replies[2].Fresh || !reflect.DeepEqual(replies[2].Items, delta) {
		t.Fatalf("batch[2] should match the single stale-cursor pull's delta")
	}
	if _, err := w.PullBGPBatch([]sidecar.PullRequest{{Exporter: "no-such-node", Puller: puller}}); err == nil {
		t.Fatal("batch with a non-hosted exporter must error")
	}
}

// TestPullBGPConcurrentPullers hammers one exporter from many goroutines,
// each maintaining its own version cursor the way per-node gather tasks
// do. The contract under concurrency: versions never move backwards, a
// fresh reply always carries the advancing version, and a converged
// exporter eventually answers every cursor with a stale no-op. Run under
// -race this also proves the exporter-side locking.
func TestPullBGPConcurrentPullers(t *testing.T) {
	w, exporter, _, _ := pullCursorWorker(t)
	pullers := make([]string, 0, 4)
	for _, dest := range w.adjIndex[exporter] {
		pullers = append(pullers, dest.Node)
	}
	if len(pullers) == 0 {
		t.Fatal("exporter has no neighbors")
	}

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			puller := pullers[g%len(pullers)]
			var ver uint64
			seen := false
			freshCount := 0
			for i := 0; i < iters; i++ {
				// Mix batches of one and of two on the same cursor.
				var advs int
				var nv uint64
				var fresh bool
				if i%3 == 2 {
					replies, err := w.PullBGPBatch([]sidecar.PullRequest{
						{Exporter: exporter, Puller: puller, Since: ver, Seen: seen},
						{Exporter: exporter, Puller: puller, Since: ver, Seen: seen},
					})
					if err != nil {
						errs <- err
						return
					}
					advs, nv, fresh = len(replies[0].Items), replies[0].Version, replies[0].Fresh
				} else {
					a, v, f, err := pullBGP(w, exporter, puller, ver, seen)
					if err != nil {
						errs <- err
						return
					}
					advs, nv, fresh = len(a), v, f
				}
				if nv < ver {
					errs <- fmt.Errorf("goroutine %d: version moved backwards: %d -> %d", g, ver, nv)
					return
				}
				if fresh {
					freshCount++
					if advs == 0 {
						errs <- fmt.Errorf("goroutine %d: fresh reply with no advertisements", g)
						return
					}
					ver, seen = nv, true
				} else if advs != 0 {
					errs <- fmt.Errorf("goroutine %d: stale reply carried %d advertisements", g, advs)
					return
				}
			}
			// The control plane is converged, so after the first fresh
			// export this cursor must have gone quiet.
			if freshCount != 1 {
				errs <- fmt.Errorf("goroutine %d: %d fresh replies from a converged exporter, want 1", g, freshCount)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// ospfLineTexts is a 3-router OSPF chain (r1 - r2 - r3), the smallest
// topology whose LSA flooding crosses a worker boundary when split two
// ways.
func ospfLineTexts() map[string]string {
	return map[string]string{
		"r1": `hostname r1
interface eth0
 ip address 10.0.0.0/31
interface lo0
 ip address 192.168.0.1/32
router ospf 1
 router-id 0.0.0.1
`,
		"r2": `hostname r2
interface eth0
 ip address 10.0.0.1/31
interface eth1
 ip address 10.0.1.0/31
router ospf 1
 router-id 0.0.0.2
`,
		"r3": `hostname r3
interface eth0
 ip address 10.0.1.1/31
interface lo0
 ip address 192.168.0.3/32
router ospf 1
 router-id 0.0.0.3
`,
	}
}

// TestPullLSACursorSemantics is the OSPF analogue: ExportsTo floods the full
// LSDB on a stale or unseen cursor and no-ops on an up-to-date one, for
// batches of one and of several alike, under concurrent pullers.
func TestPullLSACursorSemantics(t *testing.T) {
	texts := ospfLineTexts()
	snap, err := config.ParseTexts(withCfgSuffix(texts))
	if err != nil {
		t.Fatal(err)
	}
	c := newS2(t, snap, texts, Options{Workers: 2, Seed: 1, Parallelism: 1})
	defer c.Close()
	convergeCP(t, c,
		func(w *Worker) error { return w.GatherOSPF() },
		func(w *Worker) (sidecar.ApplyReply, error) { return w.ApplyOSPF() }, nil)

	var w *Worker
	for _, lw := range c.locals {
		if lw != nil && lw.ospfProcs["r2"] != nil {
			w = lw
		}
	}
	if w == nil {
		t.Fatal("no local worker hosts r2")
	}

	lsas, ver, fresh, err := pullLSAs(w, "r2", "r1", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// r2's converged LSDB holds all three routers' LSAs.
	if !fresh || len(lsas) != 3 || ver == 0 {
		t.Fatalf("initial LSA pull: fresh=%v lsas=%d ver=%d, want full 3-LSA flood", fresh, len(lsas), ver)
	}
	got, ver2, fresh2, err := pullLSAs(w, "r2", "r1", ver, true)
	if err != nil {
		t.Fatal(err)
	}
	if fresh2 || got != nil || ver2 != ver {
		t.Fatalf("up-to-date LSA pull: fresh=%v lsas=%d, want stale no-op", fresh2, len(got))
	}
	if _, _, _, err := pullLSAs(w, "no-such-node", "r1", 0, false); err == nil {
		t.Fatal("LSA pull from a non-hosted exporter must error")
	}

	replies, err := w.PullLSABatch([]sidecar.PullRequest{
		{Exporter: "r2", Puller: "r1", Since: 0, Seen: false},
		{Exporter: "r2", Puller: "r1", Since: ver, Seen: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !replies[0].Fresh || len(replies[0].Items) != 3 {
		t.Fatalf("LSA batch[0]: fresh=%v lsas=%d, want full flood", replies[0].Fresh, len(replies[0].Items))
	}
	if replies[1].Fresh || replies[1].Items != nil {
		t.Fatalf("LSA batch[1]: fresh=%v, want stale no-op", replies[1].Fresh)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ver uint64
			seen := false
			for i := 0; i < 100; i++ {
				lsas, nv, fresh, err := pullLSAs(w, "r2", "r1", ver, seen)
				if err != nil {
					errs <- err
					return
				}
				if nv < ver {
					errs <- fmt.Errorf("goroutine %d: LSA version moved backwards", g)
					return
				}
				if fresh {
					if len(lsas) != 3 {
						errs <- fmt.Errorf("goroutine %d: fresh flood had %d LSAs", g, len(lsas))
						return
					}
					ver, seen = nv, true
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

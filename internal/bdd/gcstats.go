package bdd

import "time"

// GCStats aggregates collection telemetry for one engine. Pauses are split
// into the three stop-the-world phases (mark / sweep / relocate) so pacing
// and dashboards can see where the time goes: mark shrinks with
// SetGCParallelism, sweep is proportional to live nodes, relocate to
// occupied cache slots.
type GCStats struct {
	// Runs counts completed collections.
	Runs int64
	// LastLive and LastFreed are the node counts surviving and reclaimed
	// by the most recent collection.
	LastLive  int
	LastFreed int
	// LastMarkProcs is the marker pool size the last collection used
	// (1 for small tables regardless of the configured parallelism).
	LastMarkProcs int
	// Phase durations of the most recent collection; LastPause is their
	// sum, TotalPause the lifetime sum across all collections.
	LastMark     time.Duration
	LastSweep    time.Duration
	LastRelocate time.Duration
	LastPause    time.Duration
	TotalPause   time.Duration
	// Op-cache relocation outcome: entries translated to the new id space
	// vs dropped because an operand or result died (last run / lifetime).
	LastCacheRelocated int
	LastCacheDropped   int
	CacheRelocated     int64
	CacheDropped       int64
}

// GCStats returns a snapshot of the engine's collection telemetry. Safe to
// call concurrently with operations (but, like everything else, a caller
// comparing it across a GC must provide the ordering).
func (e *Engine) GCStats() GCStats {
	e.gcMu.Lock()
	defer e.gcMu.Unlock()
	return e.gcStats
}

// SetGCParallelism bounds the goroutine pool the mark phase fans out over:
// 0 means GOMAXPROCS, 1 forces a fully sequential mark, and any value is
// capped at an internal limit past which the shared bitset stops scaling.
// Call it before issuing operations (it is not synchronized against GC).
func (e *Engine) SetGCParallelism(n int) { e.gcProcs = n }

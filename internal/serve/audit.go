// The delta audit journal: every verification epoch in serving mode leaves
// a durable record of what changed, which re-verification plan the planner
// chose, exactly which shards were re-simulated (each skipped shard is a
// soundness claim someone must be able to inspect), how long each pipeline
// stage took, and how it ended. Exposed at GET /v1/audit and summarized in
// /v1/status; -audit-log additionally appends each entry as a JSON line.

package serve

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"s2/internal/obs"
)

// AuditEntry is one delta's audit record.
type AuditEntry struct {
	// Epoch is the verified-state epoch the delta produced (for failed
	// deltas: the epoch that stayed current).
	Epoch uint64 `json:"epoch"`
	// Time is when the verification finished.
	Time time.Time `json:"time"`
	// RequestID ties the entry to the request's trace in /debug/traces
	// ("" when tracing is off or the entry is the boot record).
	RequestID string `json:"request_id,omitempty"`
	// Class is the classified change ("none", "dp", "orig", "policy",
	// "topo"; "boot" for the boot record). Changed/Added/Removed carry the
	// per-device classification behind it.
	Class   string            `json:"class"`
	Mode    string            `json:"mode"`
	Changed map[string]string `json:"changed,omitempty"`
	Added   []string          `json:"added,omitempty"`
	Removed []string          `json:"removed,omitempty"`
	// DirtyShards lists the shard rounds that ran, in execution order;
	// DirtyCount and TotalShards give its size against the shard total.
	DirtyShards []int `json:"dirty_shards,omitempty"`
	DirtyCount  int   `json:"dirty_count"`
	TotalShards int   `json:"total_shards"`
	// RecompiledNodes counts nodes whose data plane was compiled from
	// scratch; PatchedPrefixes counts changed (node, prefix) results patched
	// into resident predicates. Both zero means the data plane was untouched.
	RecompiledNodes int `json:"recompiled_nodes"`
	PatchedPrefixes int `json:"patched_prefixes"`
	// StageSeconds maps pipeline stages to wall seconds spent in them.
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
	// Seconds is the end-to-end wall time of the verification request.
	Seconds float64 `json:"seconds"`
	// Outcome is "ok" or "error"; Error carries the message for the latter.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// auditSize is how many audit entries a Journal keeps in memory.
const auditSize = 1024

// Journal is a bounded append-only ring of audit entries, optionally
// mirrored to an io.Writer as JSON lines (the -audit-log file). A nil
// *Journal is a valid disabled journal.
type Journal struct {
	mu      sync.Mutex
	ring    *obs.Ring[AuditEntry]
	sink    io.Writer
	sinkErr error
}

// NewJournal returns a journal keeping the last 1024 entries in memory.
// sink, when non-nil, receives every entry as one JSON line at record
// time; a write error is kept for SinkErr and does not stop recording.
func NewJournal(sink io.Writer) *Journal {
	return &Journal{ring: obs.NewRing[AuditEntry](auditSize), sink: sink}
}

// Record appends one entry, evicting the oldest past capacity.
func (j *Journal) Record(e AuditEntry) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ring.Push(e)
	if j.sink != nil {
		line, err := json.Marshal(e)
		if err == nil {
			line = append(line, '\n')
			_, err = j.sink.Write(line)
		}
		if err != nil {
			j.sinkErr = err
		}
	}
}

// SinkErr returns the most recent error writing an entry to the sink, or
// nil. Once set it stays set: the durable record has a gap from then on.
func (j *Journal) SinkErr() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinkErr
}

// Entries returns the resident entries, oldest first. limit > 0 restricts
// to the newest limit entries.
func (j *Journal) Entries(limit int) []AuditEntry {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Last(limit)
}

// Last returns the newest entry (nil when empty).
func (j *Journal) Last() *AuditEntry {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ring.Len() == 0 {
		return nil
	}
	e := j.ring.At(j.ring.Len() - 1)
	return &e
}

// Total returns the lifetime entry count (recorded, not resident).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Total()
}

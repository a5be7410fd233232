package store

import (
	"encoding/json"
	"fmt"
)

// Job states a record can carry. They mirror the nocmap/server job
// lifecycle; the store itself only distinguishes terminal from live
// (Terminal) when deciding what a reboot should re-enqueue.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether a state is final: terminal records are
// replayed as history, live ones are re-enqueued on boot.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobRecord is the persisted form of one job: enough to answer status
// queries after a restart (terminal records) and to re-run work that a
// crash interrupted (queued/running records, which keep the canonical
// problem JSON and the normalized solve options).
type JobRecord struct {
	ID string `json:"id"`
	// Key is the canonical problem+options hash the server routes,
	// caches and coalesces by.
	Key string `json:"key,omitempty"`
	// Problem is the canonical problem JSON (the server's re-marshaled
	// parse, so formatting differences are already washed out).
	Problem json.RawMessage `json:"problem,omitempty"`
	// Spec is the normalized solve options (server.SolveSpec) as JSON.
	Spec  json.RawMessage `json:"spec,omitempty"`
	State string          `json:"state"`
	// CacheHit and Coalesced mirror the job's wire-status flags so a
	// restored status answers byte-identical to the pre-crash one, flags
	// included.
	CacheHit  bool `json:"cache_hit,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Result carries the marshaled nocmap.Result of a finished job,
	// byte-identical to what the pre-restart server answered.
	Result json.RawMessage `json:"result,omitempty"`
	// Error carries the marshaled server.ErrorPayload of a failed or
	// cancelled job.
	Error json.RawMessage `json:"error,omitempty"`
	// Seq is the terminal-transition sequence number: strictly
	// increasing in the order jobs finished, zero while a job is live.
	// Retention eviction and restart replay both order by it, so a
	// replayed store can never resurrect a job that retention already
	// evicted.
	Seq uint64 `json:"seq,omitempty"`
	// Minted is the writer's ID-counter highwater at the time the
	// record was written. Every deletion of an old record is preceded by
	// a newer record carrying a fresher highwater, so the maximum over
	// surviving records always bounds every ID ever issued — a restarted
	// server resumes past it and can never re-mint an ID, even after
	// retention deleted the numerically-highest records.
	Minted uint64 `json:"minted,omitempty"`
	// Origin is the ID prefix of the backend that owns this record. It
	// is set only on replica records (the replica namespace a follower
	// holds for its ring predecessor), never on a server's own jobs —
	// promotion selects the replicas to adopt by it.
	Origin string `json:"origin,omitempty"`
}

// CacheEntry is one persisted result-cache entry.
type CacheEntry struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// Snapshot is everything a store holds, as loaded at boot: the latest
// record per job (first-put order), the latest cache entry per key
// (oldest write first, so re-inserting in order approximates the
// pre-restart LRU recency), and the replica namespace — records this
// instance holds on behalf of its ring predecessor, kept apart from its
// own jobs so replication survives follower restarts too.
type Snapshot struct {
	Jobs     []JobRecord  `json:"jobs"`
	Cache    []CacheEntry `json:"cache"`
	Replicas []JobRecord  `json:"replicas,omitempty"`
}

// JobStore persists jobs, terminal results and result-cache entries
// across server restarts. Its one write is a batch of Ops; the
// nocmap/server outbox flusher is its only writer, but implementations
// serialize concurrent calls internally so any caller may write. After
// Close, writes fail and Load still answers.
type JobStore interface {
	// ApplyOps applies ops in order under one durability barrier (one
	// fsync for a FileStore). An invalid op rejects the whole batch
	// before any op is written or applied. A batch that fails to become
	// durable is rolled back where the implementation can (FileStore
	// truncates to the last whole pre-batch line), so the caller may
	// retry op by op. An empty batch is a no-op.
	ApplyOps(ops []Op) error
	// Load returns the store's current contents. The server calls it
	// once at boot, before accepting work.
	Load() (*Snapshot, error)
	// Close releases the store's resources.
	Close() error
}

// OpKind names one kind of store mutation. Its value is the op string
// of the mutation's WAL line.
type OpKind string

// The store mutations a batch may carry.
const (
	// OpJob inserts or overwrites the job record Rec; Rec.ID is
	// required.
	OpJob OpKind = "job"
	// OpDelJob forgets job ID (retention eviction). Deleting an
	// unknown ID is a no-op.
	OpDelJob OpKind = "deljob"
	// OpCache inserts or refreshes the result-cache entry Key with
	// Result; Key is required.
	OpCache OpKind = "cache"
	// OpDelCache forgets cache entry Key (LRU eviction). Deleting an
	// unknown key is a no-op.
	OpDelCache OpKind = "delcache"
	// OpReplica inserts or overwrites Rec in the replica namespace —
	// state replicated from this instance's ring predecessor, isolated
	// from the instance's own jobs. Rec.ID is required.
	OpReplica OpKind = "replica"
	// OpDelReplica forgets replica record ID. Deleting an unknown ID
	// is a no-op.
	OpDelReplica OpKind = "delreplica"
)

// Op is one store mutation; its JSON encoding is one WAL line. Exactly
// the fields the Kind needs are set: Rec for job/replica puts, ID for
// job/replica deletes, Key (and Result for puts) for cache ops.
type Op struct {
	Kind   OpKind          `json:"op"`
	Rec    *JobRecord      `json:"job,omitempty"`
	ID     string          `json:"id,omitempty"`
	Key    string          `json:"key,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// validate rejects malformed operations before they reach the WAL or
// the state: an invalid op must never be fsynced to disk, where it
// would poison every subsequent replay.
func (op Op) validate() error {
	switch op.Kind {
	case OpJob, OpReplica:
		if op.Rec == nil || op.Rec.ID == "" {
			return fmt.Errorf("store: %s op without record", op.Kind)
		}
	case OpDelJob, OpDelCache, OpDelReplica:
	case OpCache:
		if op.Key == "" {
			return fmt.Errorf("store: cache op without key")
		}
	default:
		return fmt.Errorf("store: unknown wal op %q", op.Kind)
	}
	return nil
}

// validateAll checks a whole batch up front, so a rejected batch
// leaves no op behind.
func validateAll(ops []Op) error {
	for _, op := range ops {
		if err := op.validate(); err != nil {
			return err
		}
	}
	return nil
}

// rawCopy deep-copies a raw message so callers may reuse their buffers.
func rawCopy(m json.RawMessage) json.RawMessage {
	if m == nil {
		return nil
	}
	return append(json.RawMessage(nil), m...)
}

func copyRecord(rec JobRecord) JobRecord {
	rec.Problem = rawCopy(rec.Problem)
	rec.Spec = rawCopy(rec.Spec)
	rec.Result = rawCopy(rec.Result)
	rec.Error = rawCopy(rec.Error)
	return rec
}

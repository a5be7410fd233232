package store_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/nocmap/store"
)

// stores runs a subtest against both implementations so their semantics
// cannot drift.
func stores(t *testing.T, run func(t *testing.T, open func(t *testing.T) store.JobStore)) {
	t.Run("mem", func(t *testing.T) {
		run(t, func(t *testing.T) store.JobStore { return store.NewMemStore() })
	})
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		run(t, func(t *testing.T) store.JobStore {
			fs, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		})
	})
}

// activeSegment returns the path of the highest-numbered WAL segment —
// the one that was open for appends when the store last closed.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1] // zero-padded names: lexical order is numeric order
}

func rec(id, state string, seq uint64) store.JobRecord {
	return store.JobRecord{
		ID:      id,
		Key:     "key-" + id,
		Problem: json.RawMessage(`{"app":{}}`),
		Spec:    json.RawMessage(`{"algorithm":"nmap-single"}`),
		State:   state,
		Seq:     seq,
	}
}

// one applies op as a one-op batch.
func one(s store.JobStore, op store.Op) error { return s.ApplyOps([]store.Op{op}) }

func jobOp(r store.JobRecord) store.Op     { return store.Op{Kind: store.OpJob, Rec: &r} }
func replicaOp(r store.JobRecord) store.Op { return store.Op{Kind: store.OpReplica, Rec: &r} }

func TestPutLoadRoundTrip(t *testing.T) {
	stores(t, func(t *testing.T, open func(t *testing.T) store.JobStore) {
		s := open(t)
		defer s.Close()
		done := rec("job-1", store.StateDone, 1)
		done.Result = json.RawMessage(`{"feasible":true}`)
		for _, r := range []store.JobRecord{done, rec("job-2", store.StateQueued, 0)} {
			if err := one(s, jobOp(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := one(s, store.Op{Kind: store.OpCache, Key: "cache-a", Result: json.RawMessage(`{"r":1}`)}); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) != 2 || len(snap.Cache) != 1 {
			t.Fatalf("snapshot = %d jobs, %d cache entries; want 2, 1", len(snap.Jobs), len(snap.Cache))
		}
		if snap.Jobs[0].ID != "job-1" || !bytes.Equal(snap.Jobs[0].Result, done.Result) {
			t.Fatalf("job-1 did not round trip: %+v", snap.Jobs[0])
		}
		if snap.Jobs[1].State != store.StateQueued {
			t.Fatalf("job-2 state = %q", snap.Jobs[1].State)
		}
	})
}

func TestOverwriteAndDelete(t *testing.T) {
	stores(t, func(t *testing.T, open func(t *testing.T) store.JobStore) {
		s := open(t)
		defer s.Close()
		if err := one(s, jobOp(rec("job-1", store.StateQueued, 0))); err != nil {
			t.Fatal(err)
		}
		finished := rec("job-1", store.StateDone, 7)
		if err := one(s, jobOp(finished)); err != nil {
			t.Fatal(err)
		}
		if err := one(s, jobOp(rec("job-2", store.StateDone, 8))); err != nil {
			t.Fatal(err)
		}
		if err := one(s, store.Op{Kind: store.OpDelJob, ID: "job-2"}); err != nil {
			t.Fatal(err)
		}
		if err := one(s, store.Op{Kind: store.OpDelJob, ID: "missing"}); err != nil {
			t.Fatal(err)
		}
		if err := one(s, store.Op{Kind: store.OpCache, Key: "k", Result: json.RawMessage(`1`)}); err != nil {
			t.Fatal(err)
		}
		if err := one(s, store.Op{Kind: store.OpDelCache, Key: "k"}); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) != 1 || snap.Jobs[0].State != store.StateDone || snap.Jobs[0].Seq != 7 {
			t.Fatalf("snapshot jobs = %+v; want the overwritten job-1 alone", snap.Jobs)
		}
		if len(snap.Cache) != 0 {
			t.Fatalf("cache = %+v after delete", snap.Cache)
		}
	})
}

// TestFileStoreReopen is the durability core: everything written before
// a close (or crash) is there after Open.
func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	done := rec("job-1", store.StateDone, 3)
	done.Result = json.RawMessage(`{"assignment":[0,1,2]}`)
	if err := one(s, jobOp(done)); err != nil {
		t.Fatal(err)
	}
	if err := one(s, jobOp(rec("job-2", store.StateRunning, 0))); err != nil {
		t.Fatal(err)
	}
	if err := one(s, store.Op{Kind: store.OpCache, Key: "warm", Result: json.RawMessage(`{"cached":true}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 || len(snap.Cache) != 1 {
		t.Fatalf("reopened snapshot = %d jobs, %d cache entries", len(snap.Jobs), len(snap.Cache))
	}
	if !bytes.Equal(snap.Jobs[0].Result, done.Result) {
		t.Fatalf("result drifted across reopen: %s", snap.Jobs[0].Result)
	}
	if snap.Jobs[1].State != store.StateRunning {
		t.Fatalf("live job state = %q", snap.Jobs[1].State)
	}
}

// TestFileStoreTornTail simulates a SIGKILL mid-append: a torn final
// WAL line must be dropped without losing the records before it.
func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := one(s, jobOp(rec("job-1", store.StateDone, 1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := activeSegment(t, dir)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"job","job":{"id":"job-2","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	again, err := store.Open(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail Open: %v", err)
	}
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != "job-1" {
		t.Fatalf("snapshot after torn tail = %+v; want job-1 alone", snap.Jobs)
	}
	// The truncated WAL must append cleanly again.
	if err := one(again, jobOp(rec("job-3", store.StateQueued, 0))); err != nil {
		t.Fatal(err)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	snap, err = third.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 2 {
		t.Fatalf("post-truncation append lost: %+v", snap.Jobs)
	}
}

// TestFileStoreCompaction drives enough churn to trigger snapshotting
// and checks the state survives (snapshot + emptied WAL, then reopen).
func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Churn one job far past the compaction floor: the live state stays
	// tiny, so the 4x rule kicks in as soon as the floor is crossed.
	var last store.JobRecord
	for i := 0; i < 1200; i++ {
		last = rec("job-1", store.StateDone, uint64(i+1))
		last.Result = json.RawMessage(fmt.Sprintf(`{"round":%d}`, i))
		if err := one(s, jobOp(last)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapInfo, err := os.Stat(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatalf("compaction never wrote a snapshot: %v", err)
	}
	if snapInfo.Size() == 0 {
		t.Fatal("snapshot is empty")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var walSize int64
	for _, seg := range segs {
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		walSize += info.Size()
	}
	if walSize > 64<<10 {
		t.Fatalf("wal did not shrink at compaction: %d bytes across %d segments", walSize, len(segs))
	}

	again, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || !bytes.Equal(snap.Jobs[0].Result, last.Result) {
		t.Fatalf("compacted state lost the latest record: %+v", snap.Jobs)
	}
}

// TestInvalidOpsNeverReachDisk pins the review fix: a malformed write
// (job without an ID, cache entry without a key) is rejected up front —
// it must not be fsynced into the WAL, where it would poison the next
// replay.
func TestInvalidOpsNeverReachDisk(t *testing.T) {
	stores(t, func(t *testing.T, open func(t *testing.T) store.JobStore) {
		s := open(t)
		defer s.Close()
		if err := one(s, jobOp(store.JobRecord{State: store.StateQueued})); err == nil {
			t.Fatal("a job op without an ID must fail")
		}
		if err := one(s, store.Op{Kind: store.OpCache, Key: "", Result: json.RawMessage(`1`)}); err == nil {
			t.Fatal("a cache op without a key must fail")
		}
		if err := one(s, jobOp(rec("job-1", store.StateQueued, 0))); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Jobs) != 1 || len(snap.Cache) != 0 {
			t.Fatalf("rejected ops leaked into state: %+v", snap)
		}
	})
	// And the durable store must reopen cleanly after the rejections.
	dir := t.TempDir()
	fs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = one(fs, jobOp(store.JobRecord{State: store.StateQueued})) // rejected
	if err := one(fs, jobOp(rec("job-1", store.StateDone, 1))); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	again, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen after rejected writes: %v", err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 {
		t.Fatalf("snapshot = %+v, want the one valid record", snap.Jobs)
	}
}

// TestFileStoreMidLogCorruptionFailsLoudly pins the other half of the
// torn-tail contract: garbage in the *middle* of the WAL is not a torn
// tail — silently truncating there would discard validly fsynced
// records behind it, so Open must refuse instead.
func TestFileStoreMidLogCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := one(s, jobOp(rec("job-1", store.StateDone, 1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := activeSegment(t, dir)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte("{garbage\n"), data...)
	if err := os.WriteFile(wal, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir); err == nil {
		t.Fatal("mid-log corruption must fail Open, not silently truncate valid records")
	}
}

// TestTerminal pins the state classification the server replays by.
func TestTerminal(t *testing.T) {
	for state, want := range map[string]bool{
		store.StateQueued:    false,
		store.StateRunning:   false,
		store.StateDone:      true,
		store.StateFailed:    true,
		store.StateCancelled: true,
	} {
		if got := store.Terminal(state); got != want {
			t.Errorf("Terminal(%q) = %v, want %v", state, got, want)
		}
	}
}

package store_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/nocmap/store"
)

// mixedBatch carries one op of every kind, in an order where each later
// op depends on an earlier one (a delete after its put).
func mixedBatch() []store.Op {
	job, gone := rec("job-a", store.StateDone, 1), rec("job-b", store.StateQueued, 0)
	rep, repGone := rec("rep-a", store.StateDone, 1), rec("rep-b", store.StateDone, 2)
	return []store.Op{
		{Kind: store.OpJob, Rec: &job},
		{Kind: store.OpJob, Rec: &gone},
		{Kind: store.OpDelJob, ID: "job-b"},
		{Kind: store.OpCache, Key: "k1", Result: json.RawMessage(`{"v":1}`)},
		{Kind: store.OpCache, Key: "k2", Result: json.RawMessage(`{"v":2}`)},
		{Kind: store.OpDelCache, Key: "k1"},
		{Kind: store.OpReplica, Rec: &rep},
		{Kind: store.OpReplica, Rec: &repGone},
		{Kind: store.OpDelReplica, ID: "rep-b"},
	}
}

// TestFaultStoreBatchIsOneFault pins FaultStore's batch granularity: a
// whole ApplyOps is one call against the fault dials, and a clean fault
// leaves nothing behind.
func TestFaultStoreBatchIsOneFault(t *testing.T) {
	mem := store.NewMemStore()
	fault := store.NewFaultStore(mem)
	fault.FailEvery(2)
	if err := fault.ApplyOps(mixedBatch()); err != nil {
		t.Fatalf("first batch (op 1 against fail-every=2): %v", err)
	}
	late := rec("job-late", store.StateDone, 9)
	if err := fault.ApplyOps([]store.Op{{Kind: store.OpJob, Rec: &late}}); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("second batch err = %v, want ErrInjected", err)
	}
	if got := fault.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1 for two batches under fail-every=2", got)
	}
	snap, _ := mem.Load()
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != "job-a" {
		t.Fatalf("jobs = %+v, want job-a alone (the failed batch must not land)", snap.Jobs)
	}
	if len(snap.Cache) != 1 || len(snap.Replicas) != 1 {
		t.Fatalf("cache %+v / replicas %+v, want one survivor each", snap.Cache, snap.Replicas)
	}
}

// TestFaultStoreTornBatch is the lost-acknowledgment case at batch
// granularity: the barrier reports failure but the batch reached the
// store. The flusher's op-by-op retry then re-applies it, and replay
// idempotency absorbs the duplicates — nothing is lost or reordered.
func TestFaultStoreTornBatch(t *testing.T) {
	mem := store.NewMemStore()
	fault := store.NewFaultStore(mem)
	fault.SetTorn(true)
	fault.FailNext(1)
	batch := mixedBatch()
	if err := fault.ApplyOps(batch); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("torn batch err = %v, want ErrInjected", err)
	}
	landed, _ := mem.Load()
	if len(landed.Jobs) != 1 || len(landed.Cache) != 1 || len(landed.Replicas) != 1 {
		t.Fatalf("torn batch did not reach the store before the error: %+v", landed)
	}
	for _, op := range batch {
		if err := one(fault, op); err != nil {
			t.Fatalf("retry %s: %v", op.Kind, err)
		}
	}
	retried, _ := mem.Load()
	if !reflect.DeepEqual(retried, landed) {
		t.Fatalf("retrying a torn batch changed the state:\n got %+v\nwant %+v", retried, landed)
	}
}

// TestRejectedBatchLeavesStoreUnchanged pins the all-or-nothing
// validation contract on every store: a batch whose LAST op is invalid
// is rejected before any of its ops is written or applied.
func TestRejectedBatchLeavesStoreUnchanged(t *testing.T) {
	kept, a := rec("job-kept", store.StateDone, 1), rec("job-a", store.StateDone, 2)
	for _, st := range []struct {
		name string
		open func(t *testing.T) store.JobStore
	}{
		{"mem", func(*testing.T) store.JobStore { return store.NewMemStore() }},
		{"file", func(t *testing.T) store.JobStore {
			fs, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
		{"fault-over-mem", func(*testing.T) store.JobStore { return store.NewFaultStore(store.NewMemStore()) }},
	} {
		for _, bad := range []store.Op{
			{Kind: store.OpCache, Key: ""},
			{Kind: store.OpJob},
			{Kind: store.OpReplica, Rec: &store.JobRecord{}},
			{Kind: "bogus"},
		} {
			t.Run(st.name+"/"+string(bad.Kind), func(t *testing.T) {
				s := st.open(t)
				defer s.Close()
				if err := one(s, jobOp(kept)); err != nil {
					t.Fatal(err)
				}
				before, _ := s.Load()
				batch := []store.Op{
					jobOp(a),
					{Kind: store.OpCache, Key: "k", Result: json.RawMessage(`1`)},
					{Kind: store.OpDelJob, ID: "job-kept"},
					bad,
				}
				if err := s.ApplyOps(batch); err == nil {
					t.Fatalf("batch ending in %+v was accepted", bad)
				}
				if after, _ := s.Load(); !reflect.DeepEqual(after, before) {
					t.Fatalf("rejected batch changed the store:\n got %+v\nwant %+v", after, before)
				}
			})
		}
	}
}

// TestApplyOpsCrashPrefix is the SIGKILL-mid-batch property of the
// batched WAL append: after a crash, the reopened store holds a strict
// PREFIX of the write order — every batch ApplyOps acknowledged,
// possibly some of a torn batch behind them, and never a hole. The
// crash is a half-written batch appended straight to the WAL.
func TestApplyOpsCrashPrefix(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const acked, batchSize = 40, 8
	for i := 0; i < acked; i += batchSize {
		ops := make([]store.Op, 0, batchSize)
		for k := i; k < i+batchSize; k++ {
			r := rec(fmt.Sprintf("job-%03d", k), store.StateDone, uint64(k+1))
			ops = append(ops, store.Op{Kind: store.OpJob, Rec: &r})
		}
		if err := fs.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(activeSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"job","job":{"id":"job-040","state":"done"}}` + "\n" +
		`{"op":"job","job":{"id":"job-041","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	again, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen after mid-batch crash: %v", err)
	}
	defer again.Close()
	snap, err := again.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) < acked {
		t.Fatalf("recovered %d jobs, acked %d — acked writes lost", len(snap.Jobs), acked)
	}
	seen := make(map[int]bool)
	for _, j := range snap.Jobs {
		n, err := strconv.Atoi(strings.TrimPrefix(j.ID, "job-"))
		if err != nil {
			t.Fatalf("unexpected job id %q", j.ID)
		}
		seen[n] = true
	}
	for i := 0; i < len(snap.Jobs); i++ {
		if !seen[i] {
			t.Fatalf("recovered set has a hole at %d: %d jobs recovered", i, len(snap.Jobs))
		}
	}
}

// walJobIDs reads every WAL segment in dir, oldest first, and returns
// the ids of its job puts in log order — the on-disk write order.
func walJobIDs(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, seg := range segs { // zero-padded names: lexical order is numeric order
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var line struct {
				Op  string `json:"op"`
				Job *struct {
					ID string `json:"id"`
				} `json:"job"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				f.Close()
				t.Fatalf("%s: bad wal line %q: %v", seg, sc.Text(), err)
			}
			if line.Op == "job" && line.Job != nil {
				ids = append(ids, line.Job.ID)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// putJobs builds one batch of job puts with the given ids.
func putJobs(ids ...string) []store.Op {
	ops := make([]store.Op, len(ids))
	for i, id := range ids {
		r := rec(id, store.StateDone, uint64(i+1))
		ops[i] = store.Op{Kind: store.OpJob, Rec: &r}
	}
	return ops
}

// TestGroupCommitSerialOrder pins the core WAL-order contract of the
// batched append: a single writer's submission order IS the on-disk
// order, across however many group commits it is cut into.
func TestGroupCommitSerialOrder(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n, batchSize = 100, 7
	for i := 0; i < n; i += batchSize {
		var ids []string
		for k := i; k < i+batchSize && k < n; k++ {
			ids = append(ids, fmt.Sprintf("job-%03d", k))
		}
		if err := fs.ApplyOps(putJobs(ids...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	ids := walJobIDs(t, dir)
	if len(ids) != n {
		t.Fatalf("wal holds %d job puts, want %d", len(ids), n)
	}
	for i, id := range ids {
		if want := fmt.Sprintf("job-%03d", i); id != want {
			t.Fatalf("wal line %d out of order: got %s, want %s", i, id, want)
		}
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
	if len(snap.Jobs) != n {
		t.Fatalf("reopened store holds %d jobs, want %d", len(snap.Jobs), n)
	}
}

// TestGroupCommitConcurrentOrder drives many concurrent writers and
// checks every writer's program order survives into the WAL, and that
// each group commit lands contiguously: batches may interleave with one
// another, but never with the inside of one.
func TestGroupCommitConcurrentOrder(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer, batchSize = 8, 50, 5
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i += batchSize {
				ids := make([]string, batchSize)
				for k := range ids {
					ids[k] = fmt.Sprintf("p%d-%03d", p, i+k)
				}
				if err := fs.ApplyOps(putJobs(ids...)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	ids := walJobIDs(t, dir)
	if len(ids) != producers*perProducer {
		t.Fatalf("wal holds %d job puts, want %d", len(ids), producers*perProducer)
	}
	next := make([]int, producers)
	prev := -1
	for i, id := range ids {
		var p, seq int
		if _, err := fmt.Sscanf(id, "p%d-%d", &p, &seq); err != nil {
			t.Fatalf("wal line %d: unparseable id %q", i, id)
		}
		if seq != next[p] {
			t.Fatalf("producer %d reordered: wal has %03d, expected %03d (line %d)", p, seq, next[p], i)
		}
		if seq%batchSize != 0 && p != prev {
			t.Fatalf("batch of producer %d split at wal line %d by producer %d", p, i, prev)
		}
		next[p]++
		prev = p
	}
}

package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/nocmap/server"
	"repro/nocmap/store"
)

// batchCountingStore records every ApplyOps batch the server's flusher
// hands down, in order — the probe the batching and WAL-order tests
// read flush granularity and write order from.
type batchCountingStore struct {
	store.JobStore

	// before, when set, runs at the start of every ApplyOps with the
	// batch's index: the hook tests park the flusher or arm faults from.
	before func(batch int)

	mu      sync.Mutex
	batches [][]store.Op
}

func (b *batchCountingStore) ApplyOps(ops []store.Op) error {
	b.mu.Lock()
	n := len(b.batches)
	b.batches = append(b.batches, append([]store.Op(nil), ops...))
	b.mu.Unlock()
	if b.before != nil {
		b.before(n)
	}
	return b.JobStore.ApplyOps(ops)
}

// parkFirstBatch makes the flusher's first ApplyOps signal entered and
// then wait for release, so everything decided meanwhile piles up in
// the outbox behind it. release is idempotent: tests defer it so a
// failure cannot leave Server.Close waiting on a parked flusher.
func parkFirstBatch() (hook func(batch int), entered chan struct{}, release func()) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func(batch int) {
		if batch == 0 {
			close(entered)
			<-gate
		}
	}, entered, func() { once.Do(func() { close(gate) }) }
}

func (b *batchCountingStore) snapshotBatches() [][]store.Op {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]store.Op, len(b.batches))
	copy(out, b.batches)
	return out
}

// slowStore builds the slow-disk fixture: a FaultStore that charges
// `latency` per durability barrier over the returned MemStore.
func slowStore(latency time.Duration) (*store.FaultStore, *store.MemStore) {
	mem := store.NewMemStore()
	fault := store.NewFaultStore(mem)
	fault.SetLatency(latency)
	return fault, mem
}

// TestReplicatedAckImpliesLocalFsync is the durability-class regression
// test for the async write path: a durability=replicated ack must imply
// the terminal record is already fsynced on the local store — the ack
// may never leapfrog records still sitting in the write-behind queue.
// The disk is made slow enough (100ms per barrier) that an ack which
// skipped the sync barrier would beat the record to disk every time.
func TestReplicatedAckImpliesLocalFsync(t *testing.T) {
	_, follower := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: store.NewMemStore(),
	})
	slow, mem := slowStore(100 * time.Millisecond)
	_, primary := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p0-", Store: slow,
		ReplicaTargets: []string{follower.URL},
	})

	resp, got := post(t, primary.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "fsync-before-ack"), server.SolveSpec{Durability: server.DurabilityReplicated}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability != server.DurabilityReplicated {
		t.Fatalf("status durability = %q, want %q", st.Durability, server.DurabilityReplicated)
	}
	// The moment the ack is in hand, the terminal record must already be
	// on the (slow) disk — read the innermost store directly, behind the
	// fault layer's 100ms barrier.
	snap, err := mem.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range snap.Jobs {
		if rec.ID == st.ID {
			if !store.Terminal(rec.State) {
				t.Fatalf("acked job persisted as %q — the ack outran the terminal fsync", rec.State)
			}
			return
		}
	}
	t.Fatalf("job %s acked replicated but absent from the local store", st.ID)
}

// TestSlowDiskDoesNotBlockReads pins the other half of the async-path
// contract: with the store 250ms-per-barrier slow and writes pending
// behind it, GET /v1/jobs/{id} answers from memory in milliseconds —
// reads never queue behind an fsync (the old under-lock store write
// path serialized exactly this).
func TestSlowDiskDoesNotBlockReads(t *testing.T) {
	slow, _ := slowStore(250 * time.Millisecond)
	svc, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, Store: slow,
	})
	resp, got := post(t, ts.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "slow-disk-reads"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	// The solve's records are still paying their 250ms barriers: the
	// write-behind window must be visibly non-empty...
	if pending := svc.Stats().StorePending; pending == 0 {
		t.Fatal("StorePending = 0 right after a solve on a 250ms-per-barrier disk")
	}
	// ...and reads must not be stuck behind it.
	start := time.Now()
	gresp, body := get(t, ts.URL+"/v1/jobs/"+st.ID)
	elapsed := time.Since(start)
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d (body %s)", gresp.StatusCode, body)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("GET took %v with writes pending — reads are blocking on the slow disk", elapsed)
	}
}

// TestReplayEvictionFlushesOnce is the regression test for the old
// persist path where a retention sweep fsynced every evicted job
// individually under the server lock: a replay that evicts dozens of
// restored jobs must hand ALL the drops to the store as one batch.
func TestReplayEvictionFlushesOnce(t *testing.T) {
	const seeded, retention = 30, 8
	bs := &batchCountingStore{JobStore: store.NewMemStore()}
	for i := 0; i < seeded; i++ {
		rec := store.JobRecord{
			ID:    "p0-job-" + string(rune('a'+i/10)) + string(rune('a'+i%10)),
			Key:   "key",
			State: store.StateDone,
			Seq:   uint64(i + 1),
		}
		if err := bs.ApplyOps([]store.Op{{Kind: store.OpJob, Rec: &rec}}); err != nil {
			t.Fatal(err)
		}
	}
	bs.mu.Lock()
	bs.batches = nil // forget the seeding writes; count only the server's
	bs.mu.Unlock()

	_, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, Retention: retention, Store: bs,
	})
	wantDrops := seeded - retention
	deletes := func() (total, largestBatch int) {
		for _, batch := range bs.snapshotBatches() {
			n := 0
			for _, op := range batch {
				if op.Kind == store.OpDelJob {
					n++
				}
			}
			total += n
			if n > largestBatch {
				largestBatch = n
			}
		}
		return total, largestBatch
	}
	waitFor(t, "the replay eviction sweep to reach the store", func() bool {
		total, _ := deletes()
		return total >= wantDrops
	})
	total, largest := deletes()
	if total != wantDrops {
		t.Fatalf("store saw %d drops, want %d", total, wantDrops)
	}
	if largest != wantDrops {
		t.Fatalf("largest delete batch = %d of %d drops — the sweep split into multiple flushes", largest, wantDrops)
	}
	_ = ts
}

// TestStoreBackpressure429 pins the durability backpressure: when the
// write-behind window hits Config.StoreQueue, submissions shed with a
// 429 whose message names the store (not the job queue), and the server
// recovers once the disk catches up.
func TestStoreBackpressure429(t *testing.T) {
	fault := store.NewFaultStore(store.NewMemStore())
	fault.SetLatency(300 * time.Millisecond)
	_, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, Store: fault, StoreQueue: 1,
	})
	resp, got := post(t, ts.URL+"/v1/jobs",
		submitBody(t, tinyProblemJSON(t, "bp-first"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d (body %s)", resp.StatusCode, got)
	}
	// The first submission's record is paying its 300ms barrier: the
	// window is full, so the next submission must shed.
	resp, got = post(t, ts.URL+"/v1/jobs",
		submitBody(t, tinyProblemJSON(t, "bp-second"), server.SolveSpec{}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status = %d (body %s), want 429", resp.StatusCode, got)
	}
	if code := errCode(t, got); code != server.CodeQueueFull {
		t.Fatalf("code = %q, want %q", code, server.CodeQueueFull)
	}
	var envelope struct {
		Error server.ErrorPayload `json:"error"`
	}
	if err := json.Unmarshal(got, &envelope); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(envelope.Error.Message, "write-behind") {
		t.Fatalf("429 message %q does not name the store write-behind window", envelope.Error.Message)
	}
	// Once the disk catches up the server admits work again.
	waitFor(t, "the write-behind window to drain", func() bool {
		resp, _ := post(t, ts.URL+"/v1/jobs",
			submitBody(t, tinyProblemJSON(t, "bp-third"), server.SolveSpec{}))
		return resp.StatusCode == http.StatusAccepted
	})
}

// postJob POSTs a prepared body to /v1/jobs from any goroutine (no
// t.Fatal) and returns the minted job ID.
func postJob(base string, body []byte) (string, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	return st.ID, nil
}

// TestStoreWritesFollowLockOrder pins the WAL-order contract of the one
// write-behind queue: under concurrent submitters the store receives
// job records in exactly the order the server's lock decided them —
// IDs first written in minting order, terminal sequence numbers
// strictly increasing, no job regressing from terminal to live — across
// every batch boundary. It also pins the batching itself and the
// write-behind watermark: with the flusher parked on its first batch,
// everything decided meanwhile is counted in StorePending and reaches
// the store as ONE batch once the disk frees up.
func TestStoreWritesFollowLockOrder(t *testing.T) {
	park, entered, release := parkFirstBatch()
	bs := &batchCountingStore{JobStore: store.NewMemStore(), before: park}
	svc, ts := newConfiguredServer(t, server.Config{
		Pool: 2, QueueSize: 256, CacheSize: 8, Store: bs,
	})
	defer release()
	first := submitE2E(t, ts.URL, submitBody(t, tinyProblemJSON(t, "order-first"), server.SolveSpec{}))
	<-entered

	const producers, perProducer = 8, 10
	bodies := make([][]byte, producers*perProducer)
	for i := range bodies {
		bodies[i] = submitBody(t, tinyProblemJSON(t, fmt.Sprintf("order-%d", i)), server.SolveSpec{})
	}
	ids := make(chan string, len(bodies))
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for _, body := range bodies[p*perProducer : (p+1)*perProducer] {
				id, err := postJob(ts.URL, body)
				if err != nil {
					t.Error(err)
					return
				}
				ids <- id
			}
		}(p)
	}
	wg.Wait()
	close(ids)
	if t.Failed() {
		t.FailNow()
	}
	all := []string{first}
	for id := range ids {
		all = append(all, id)
	}
	for _, id := range all {
		waitRemoteState(t, ts.URL, id, server.StateDone, 10*time.Second)
	}
	// Every job has at least its queued and terminal records written
	// behind the parked flusher.
	if pending := svc.Stats().StorePending; pending < 2*len(all) {
		t.Fatalf("StorePending = %d with the disk parked, want >= %d", pending, 2*len(all))
	}
	release()
	waitFor(t, "the write-behind window to drain", func() bool {
		return svc.Stats().StorePending == 0
	})

	batches := bs.snapshotBatches()
	if len(batches) != 2 {
		t.Fatalf("flusher wrote %d batches, want 2: the parked one and everything queued behind it", len(batches))
	}
	var (
		lastMinted, lastSeq uint64
		lastFirstID         string
		terminal            = make(map[string]bool)
	)
	for b, batch := range batches {
		for i, op := range batch {
			if op.Kind != store.OpJob {
				continue
			}
			r := op.Rec
			where := fmt.Sprintf("batch %d op %d (%s %s)", b, i, r.ID, r.State)
			if r.Minted < lastMinted {
				t.Fatalf("%s: minted highwater went back from %d to %d", where, lastMinted, r.Minted)
			}
			lastMinted = r.Minted
			if _, seen := terminal[r.ID]; !seen {
				if r.ID <= lastFirstID { // zero-padded IDs: lexical order is minting order
					t.Fatalf("%s: first write of this job came after %s's", where, lastFirstID)
				}
				lastFirstID = r.ID
			}
			if store.Terminal(r.State) {
				if r.Seq <= lastSeq {
					t.Fatalf("%s: terminal seq %d not above %d", where, r.Seq, lastSeq)
				}
				lastSeq = r.Seq
			} else if terminal[r.ID] {
				t.Fatalf("%s: live record written after the job's terminal one", where)
			}
			terminal[r.ID] = terminal[r.ID] || store.Terminal(r.State)
		}
	}
	snap, err := bs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != len(all) {
		t.Fatalf("store holds %d jobs, want %d", len(snap.Jobs), len(all))
	}
	for _, r := range snap.Jobs {
		if r.State != store.StateDone {
			t.Fatalf("job %s persisted as %q, want done", r.ID, r.State)
		}
	}
}

// TestStoreBatchFailureLosesOnlyTheBadOp pins the flusher's failure
// isolation: when a batch barrier fails, the batch is retried op by op
// as one-op batches, so one bad op is lost and counted in StoreErrors while every op
// behind it in the same batch still lands.
func TestStoreBatchFailureLosesOnlyTheBadOp(t *testing.T) {
	mem := store.NewMemStore()
	fault := store.NewFaultStore(mem)
	park, entered, release := parkFirstBatch()
	bs := &batchCountingStore{JobStore: fault, before: func(batch int) {
		park(batch)
		if batch == 1 {
			// Fail this batch's barrier, then the first op-by-op retry.
			fault.FailNext(2)
		}
	}}
	svc, ts := newConfiguredServer(t, server.Config{Pool: 1, QueueSize: 8, CacheSize: 8, Store: bs})
	defer release()
	a := submitE2E(t, ts.URL, submitBody(t, tinyProblemJSON(t, "isolate-a"), server.SolveSpec{}))
	<-entered
	waitRemoteState(t, ts.URL, a, server.StateDone, 10*time.Second)
	b := submitE2E(t, ts.URL, submitBody(t, tinyProblemJSON(t, "isolate-b"), server.SolveSpec{}))
	waitRemoteState(t, ts.URL, b, server.StateDone, 10*time.Second)

	release()
	waitFor(t, "the write-behind window to drain", func() bool {
		return svc.Stats().StorePending == 0
	})
	batches := bs.snapshotBatches()
	if len(batches) < 2 || len(batches[1]) < 3 {
		t.Fatalf("batches = %d, want the parked one plus one of >= 3 ops", len(batches))
	}
	// The failed batch is retried op by op, each op a one-op batch.
	retries := batches[2:]
	if len(retries) != len(batches[1]) {
		t.Fatalf("%d retry batches after a %d-op failed batch, want one per op", len(retries), len(batches[1]))
	}
	for i, r := range retries {
		if len(r) != 1 || !reflect.DeepEqual(r[0], batches[1][i]) {
			t.Fatalf("retry %d = %+v, want the one op %+v", i, r, batches[1][i])
		}
	}
	if got := svc.Stats().StoreErrors; got != 1 {
		t.Fatalf("StoreErrors = %d, want 1", got)
	}
	// The store must hold batch 1 plus the failed batch minus its first
	// op — exactly.
	want := store.NewMemStore()
	if err := want.ApplyOps(batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := want.ApplyOps(batches[1][1:]); err != nil {
		t.Fatal(err)
	}
	wantSnap, _ := want.Load()
	gotSnap, _ := mem.Load()
	wantJSON, _ := json.Marshal(wantSnap)
	gotJSON, _ := json.Marshal(gotSnap)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("store after an isolated failure:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestCloseDrainsOutbox pins the shutdown contract: Server.Close returns
// only after every store write it decided — including the cancelled
// terminal records of jobs it aborted — is applied to the store, so a
// reopen finds every accepted job in a terminal state.
func TestCloseDrainsOutbox(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	slow := store.NewFaultStore(fs)
	slow.SetLatency(50 * time.Millisecond)
	svc, ts := newConfiguredServer(t, server.Config{Pool: 1, QueueSize: 64, CacheSize: 8, Store: slow})
	var ids []string
	for i := 0; i < 20; i++ {
		body := submitBody(t, tinyProblemJSON(t, fmt.Sprintf("drain-%d", i)), server.SolveSpec{})
		ids = append(ids, submitE2E(t, ts.URL, body))
	}
	if svc.Stats().StorePending == 0 {
		t.Fatal("nothing written behind at Close: the drain would go untested")
	}
	svc.Close()
	if pending := svc.Stats().StorePending; pending != 0 {
		t.Fatalf("StorePending = %d after Close", pending)
	}
	if err := slow.Close(); err != nil {
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
	states := make(map[string]string, len(snap.Jobs))
	for _, r := range snap.Jobs {
		states[r.ID] = r.State
	}
	for _, id := range ids {
		if !store.Terminal(states[id]) {
			t.Fatalf("job %s reopened as %q, want terminal — Close returned before the drain", id, states[id])
		}
	}
}

package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestStallChargedToEveryDueRequest is the coordinated-omission test: a
// server that stalls once for 100ms must be charged the stall on every
// request that came due during it, not only on the one it held.
func TestStallChargedToEveryDueRequest(t *testing.T) {
	const stall = 100 * time.Millisecond
	var mu sync.Mutex
	var stallFrom, stallTo time.Time
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		first := calls == 50
		mu.Unlock()
		if first {
			from := time.Now()
			time.Sleep(stall)
			mu.Lock()
			stallFrom, stallTo = from, time.Now()
			mu.Unlock()
		}
	}))
	defer srv.Close()

	send := func(ctx context.Context, seq int, due time.Time) outcome {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			return outcome{fail: "transport"}
		}
		resp.Body.Close()
		return outcome{status: resp.StatusCode}
	}
	r := runStep(context.Background(), stepConfig{Rate: 200, Window: time.Second, Conns: 1, Drain: time.Second}, 0, send)

	mu.Lock()
	from, to := stallFrom, stallTo
	mu.Unlock()
	if from.IsZero() {
		t.Fatal("the stub never stalled")
	}
	charged := 0
	for i, s := range r.samples {
		if s.missed || s.done.IsZero() {
			t.Fatalf("request %d was not sent", i)
		}
		if s.due.Before(from) || !s.due.Before(to) {
			continue
		}
		// Due during the stall: it cannot finish before the stall ends.
		if got, want := s.done.Sub(s.due), to.Sub(s.due); got < want {
			t.Errorf("request %d due %v into the stall: latency %v, want >= %v",
				i, s.due.Sub(from), got, want)
		}
		charged++
	}
	if charged < 10 {
		t.Fatalf("only %d requests came due during the %v stall at 200/s", charged, stall)
	}
	st := r.stats()
	if p99 := quantile(st.LatMs, 0.99); p99 < 50 {
		t.Errorf("p99 %.1fms hides a 100ms stall that held ~20 of 200 requests", p99)
	}
}

// TestMissedSlotsCounted checks that requests that never got a sender
// before the drain deadline are counted as missed, not dropped.
func TestMissedSlotsCounted(t *testing.T) {
	send := func(ctx context.Context, seq int, due time.Time) outcome {
		time.Sleep(50 * time.Millisecond) // capacity 20/s against 100/s offered
		return outcome{status: http.StatusOK}
	}
	r := runStep(context.Background(), stepConfig{Rate: 100, Window: 500 * time.Millisecond, Conns: 1, Drain: 100 * time.Millisecond}, 0, send)
	st := r.stats()
	if st.Scheduled != 50 || st.OK+st.Failed+st.Missed != st.Scheduled {
		t.Fatalf("scheduled %d, ok %d + failed %d + missed %d", st.Scheduled, st.OK, st.Failed, st.Missed)
	}
	if st.Missed < 30 {
		t.Errorf("missed %d of 50 at 5x over capacity", st.Missed)
	}
	if st.meets(1000, 1, 1000) {
		t.Error("an overloaded step passed the knee criteria")
	}
}

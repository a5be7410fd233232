package main

import (
	"context"
	"sync"
	"time"
)

// stepConfig is one open-loop step. Request i is due at start + i/Rate
// for every i < Rate*Window, whatever happened to earlier requests. A
// request still waiting for a free sender Drain after the window closed
// is counted as missed and never sent, so an overloaded step ends on
// time instead of replaying its whole backlog.
type stepConfig struct {
	Rate   float64
	Window time.Duration
	Conns  int
	Drain  time.Duration
}

// sendFunc issues request seq (due at due) and reports its outcome. The
// generator calls it from Conns goroutines at once.
type sendFunc func(ctx context.Context, seq int, due time.Time) outcome

// outcome is one request as its sender saw it.
type outcome struct {
	// fail is "" for a correct answer, otherwise the failure class.
	fail string
	// status is the HTTP status, 0 when no response arrived.
	status int
	// noDurabilityHeader marks a durable answer that lacked the
	// X-Nocmap-Durability header.
	noDurabilityHeader bool
	// connAt, wroteAt and headersAt are set by a traced sender: when the
	// request got its connection, finished writing, and saw the first
	// response byte.
	connAt, wroteAt, headersAt time.Time
}

// sample is the generator's record of one scheduled request.
type sample struct {
	due, enqueued, sent, done time.Time
	missed                    bool
	out                       outcome
}

// stepResult is everything one step recorded, in schedule order.
type stepResult struct {
	cfg     stepConfig
	first   int // sequence number of the first request
	start   time.Time
	samples []sample
}

// runStep offers cfg.Rate requests per second for cfg.Window, numbering
// them first, first+1, ... The scheduler never waits for a response:
// due requests queue for one of cfg.Conns senders, and each request's
// latency runs from its due time, so a stalled server is charged for
// every request that came due during the stall (no coordinated
// omission).
func runStep(ctx context.Context, cfg stepConfig, first int, send sendFunc) *stepResult {
	n := int(cfg.Rate * cfg.Window.Seconds())
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	res := &stepResult{cfg: cfg, first: first, samples: make([]sample, n)}
	// Sized to the number of sends, so the scheduler never blocks on it.
	queue := make(chan int, n)
	res.start = time.Now().Add(time.Millisecond)
	cutoff := res.start.Add(cfg.Window + cfg.Drain)

	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &res.samples[i]
				now := time.Now()
				if now.After(cutoff) || ctx.Err() != nil {
					s.missed = true
					continue
				}
				s.sent = now
				s.out = send(ctx, first+i, s.due)
				s.done = time.Now()
			}
		}()
	}

	for i := 0; i < n; {
		due := res.start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		// Hand over everything due by now: after a late wake-up the
		// overdue requests go out at once, each keeping its own due time.
		now := time.Now()
		for ; i < n; i++ {
			due := res.start.Add(time.Duration(i) * interval)
			if due.After(now) {
				break
			}
			res.samples[i].due = due
			res.samples[i].enqueued = now
			queue <- i
		}
	}
	close(queue)
	wg.Wait()
	return res
}

// stepStats summarizes a step.
type stepStats struct {
	Target    float64
	Scheduled int
	OK        int
	Failed    int // answered or errored, but not a correct answer
	Missed    int // due, never sent
	// LatMs holds due-to-completion latencies of correct answers.
	LatMs []float64
	// Offered is the rate the scheduler achieved; SendRate the rate at
	// which requests reached a sender within the window.
	Offered, SendRate float64
	// LagP99Ms is the scheduler's own lateness: enqueue minus due.
	LagP99Ms float64
	// BacklogEnd counts requests due but not completed at window end.
	BacklogEnd int
	// Fails counts failures by class; Statuses counts HTTP statuses.
	Fails    map[string]int
	Statuses map[int]int
}

func (r *stepResult) stats() stepStats {
	st := stepStats{Target: r.cfg.Rate, Scheduled: len(r.samples),
		Fails: map[string]int{}, Statuses: map[int]int{}}
	windowEnd := r.start.Add(r.cfg.Window)
	var lags []float64
	var lastEnq time.Time
	sentInWindow, doneInWindow := 0, 0
	for _, s := range r.samples {
		lags = append(lags, ms(s.enqueued.Sub(s.due)))
		if s.enqueued.After(lastEnq) {
			lastEnq = s.enqueued
		}
		if s.missed {
			st.Missed++
			st.Fails["missed"]++
			continue
		}
		if !s.sent.After(windowEnd) {
			sentInWindow++
		}
		if !s.done.After(windowEnd) {
			doneInWindow++
		}
		if s.out.status != 0 {
			st.Statuses[s.out.status]++
		}
		if s.out.fail != "" {
			st.Failed++
			st.Fails[s.out.fail]++
			continue
		}
		st.OK++
		st.LatMs = append(st.LatMs, ms(s.done.Sub(s.due)))
	}
	span := r.cfg.Window.Seconds()
	if d := lastEnq.Sub(r.start).Seconds() + 1/r.cfg.Rate; d > span {
		span = d
	}
	st.Offered = float64(len(r.samples)) / span
	st.SendRate = float64(sentInWindow) / r.cfg.Window.Seconds()
	st.LagP99Ms = quantile(lags, 0.99)
	st.BacklogEnd = len(r.samples) - doneInWindow
	return st
}

// generatorOK reports whether the generator itself kept its schedule:
// the achieved offered rate within 1% of target and its lag p99 under
// maxLagMs. A step that fails this measured the load generator, not the
// program, and is not recorded.
func (st stepStats) generatorOK(maxLagMs float64) bool {
	return st.Offered >= 0.99*st.Target && st.LagP99Ms <= maxLagMs
}

// meets reports whether a step passes the knee criteria: no failures or
// missed slots, p99 within limitMs, the send rate at target, and no
// backlog beyond what limitMs of traffic (or one request per sender)
// accounts for.
func (st stepStats) meets(limitMs float64, conns int, maxLagMs float64) bool {
	backlog := st.Target * limitMs / 1000
	if b := float64(conns); b > backlog {
		backlog = b
	}
	return st.generatorOK(maxLagMs) &&
		st.Failed == 0 && st.Missed == 0 &&
		quantile(st.LatMs, 0.99) <= limitMs &&
		st.SendRate >= 0.95*st.Target &&
		float64(st.BacklogEnd) <= backlog
}

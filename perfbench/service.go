package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/nocmap/server"
)

// serviceWorkload describes one service workload: the fleet shape, the
// inputs, the fixed reference rate, the p99 limit and the rate ladder
// the knee is searched on.
type serviceWorkload struct {
	backends   int
	router     bool
	variants   int
	durability string
	// warmAll sends every variant once before anything is timed, so the
	// timed requests find their results cached.
	warmAll bool
	refRate float64
	limitMs float64
	ladder  ladder
}

// The two service workloads. serve-miss draws uniformly from 8192
// variants, 64x the default 128-entry result cache, so nearly every
// request is solved and written to the store. fleet-replicated sends a
// 64-variant hot set that fits each backend's cache, through the router,
// with durability=replicated: a cache hit whose ack waits for the local
// fsync and a follower.
var (
	serveMiss = serviceWorkload{
		backends: 1, variants: 8192,
		refRate: 600, limitMs: 50,
		ladder: ladder{Base: 400, Ratio: 1.06, Top: 60, Stride: 2},
	}
	fleetReplicated = serviceWorkload{
		backends: 2, router: true, variants: 64, durability: server.DurabilityReplicated, warmAll: true,
		refRate: 300, limitMs: 100,
		ladder: ladder{Base: 100, Ratio: 1.06, Top: 60, Stride: 2},
	}
)

// maxLag bounds the generator's own schedule lag p99 at a quarter of
// the latency limit. Lag only ever adds to measured latency (requests
// are timed from their due time); beyond this a step measured the
// generator more than the program.
func (w serviceWorkload) maxLag() float64 { return w.limitMs / 4 }

const (
	// setupReps is how many times a run sets up (builds its problems,
	// starts its fleet); setup_s is the median, and the last set-up
	// takes the load.
	setupReps = 25
	// stepWindow is how long one ladder step offers its rate.
	stepWindow = 1500 * time.Millisecond
	// Problem shape of the service inputs: 8 cores, 10 flows, 4x4 mesh.
	variantCores, variantFlows = 8, 10
)

func runServeMiss(ctx context.Context, o options) (*runResult, error) {
	return serveMiss.run(ctx, o)
}

func runFleetReplicated(ctx context.Context, o options) (*runResult, error) {
	return fleetReplicated.run(ctx, o)
}

// target sends the workload's requests to one URL and checks every
// answer against the in-process result.
type target struct {
	client     *http.Client
	url        string
	vs         *variantSet
	durability string
	trace      bool
}

func (t *target) send(ctx context.Context, seq int, _ time.Time) outcome {
	out, _ := t.post(ctx, t.url, int(t.vs.stream[seq%len(t.vs.stream)]))
	return out
}

// post sends variant v to url and returns the checked outcome and the
// job ID the answer carried.
func (t *target) post(ctx context.Context, url string, v int) (outcome, string) {
	var out outcome
	var mu sync.Mutex // the transport may run trace hooks on its own goroutines
	stamp := func(at *time.Time) {
		mu.Lock()
		*at = time.Now()
		mu.Unlock()
	}
	if t.trace {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn:              func(httptrace.GotConnInfo) { stamp(&out.connAt) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { stamp(&out.wroteAt) },
			GotFirstResponseByte: func() { stamp(&out.headersAt) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(t.vs.bodies[v]))
	if err != nil {
		return outcome{fail: "request"}, ""
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return outcome{fail: "transport"}, ""
	}
	defer resp.Body.Close()
	st, fail := verify(resp, t.vs.want[v], t.durability)
	mu.Lock()
	defer mu.Unlock()
	out.status, out.fail = resp.StatusCode, fail
	out.noDurabilityHeader = t.durability != "" && resp.Header.Get("X-Nocmap-Durability") == ""
	return out, st.ID
}

func (w serviceWorkload) run(ctx context.Context, o options) (*runResult, error) {
	var tr *solverTrace
	if o.trace {
		tr = newSolverTrace()
	}
	vs, err := buildVariants(ctx, o.seed, w.variants, variantCores, variantFlows, w.durability, tr)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	defer os.RemoveAll(work) // scratch space inside the checkout

	var setup []float64
	var f *fleet
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		f, err = startFleet(ctx, o, work, w.backends, w.router)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if r < setupReps-1 {
			f.stop()
		}
	}
	defer f.stop()

	// The generator's own GC would otherwise pause its scheduler every
	// second or so at the ladder's rates; its live heap is small.
	debug.SetGCPercent(400)
	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		MaxIdleConns: conns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	tgt := &target{client: &http.Client{Transport: transport, Timeout: 10 * time.Second},
		url: f.entry() + "/v1/solve", vs: vs, durability: w.durability, trace: o.trace}
	drain := time.Duration(max(4*w.limitMs, 200) * float64(time.Millisecond))
	seq := 0
	step := func(rate float64, window time.Duration) *stepResult {
		r := runStep(ctx, stepConfig{Rate: rate, Window: window, Conns: conns, Drain: drain}, seq, tgt.send)
		seq += len(r.samples)
		return r
	}
	secs := func(x float64) time.Duration { return time.Duration(x * o.seconds * float64(time.Second)) }
	res := &runResult{}

	// Warm-up: connections, page cache, and for a hot set the results.
	if w.warmAll {
		for v := range vs.bodies {
			if out, _ := tgt.post(ctx, tgt.url, v); out.fail != "" {
				return nil, fmt.Errorf("warm-up of variant %d: %s", v, out.fail)
			}
		}
	}
	if st := step(w.refRate, time.Second).stats(); st.Fails["wrong_result"] > 0 {
		res.invalid = append(res.invalid, fmt.Sprintf("warm-up: %d wrong results", st.Fails["wrong_result"]))
	}

	start, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}

	// Reference rate: the latency and failure numbers, from windows of
	// at least 1000 requests (ten beyond each window's p99) spread
	// before and after the ladder, so one noisy stretch of the host
	// moves one window's p99, not the run's median of them.
	winLen := 1050 / w.refRate
	nWin := max(1, int(0.5*o.seconds/winLen))
	var wins []*refWindow
	refWindows := func(n int) error {
		for i := 0; i < n; i++ {
			rw, err := runRefWindow(ctx, f, o.trace, w.maxLag(), func() *stepResult {
				return step(w.refRate, time.Duration(winLen*float64(time.Second)))
			})
			if err != nil {
				return err
			}
			res.invalid = append(res.invalid, crossCheck("reference", []*stepResult{rw.r}, rw.before, rw.after)...)
			res.attempted += rw.st.Scheduled
			res.failed += rw.st.Failed + rw.st.Missed
			wins = append(wins, rw)
		}
		return nil
	}
	if err := refWindows((nWin + 1) / 2); err != nil {
		return nil, err
	}

	// Knee: the highest ladder step meeting every criterion. The search
	// starts at 3/4 of the closed-loop capacity of the same connections;
	// where it starts changes how many steps it runs, not which step it
	// finds.
	capacity, bad := closedLoop(ctx, tgt, conns, time.Second, &seq)
	if bad > 0 {
		res.invalid = append(res.invalid, fmt.Sprintf("capacity probe: %d answers not correct", bad))
	}
	if err := waitQuiet(ctx, f); err != nil {
		return nil, err
	}
	ladderBefore, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var steps []*stepResult
	stepStatsAt := map[int]stepStats{}
	ladderEnd := time.Now().Add(secs(0.4))
	knee, tried := searchKnee(w.ladder, w.ladder.startStep(0.75*capacity), func(k int) bool {
		// A step gets two tries and passes if either meets every
		// criterion, so one stall does not decide the knee; a saturated
		// step fails both. A try whose generator missed its schedule
		// measured the generator and does not count, up to two of them.
		valid, invalid := 0, 0
		for valid < 2 && invalid < 2 {
			if time.Now().After(ladderEnd) {
				fmt.Fprintf(os.Stderr, "perfbench: ladder out of time at step %d\n", k)
				return false
			}
			// Each step starts from an idle fleet: the previous step's
			// store and replication backlog must not count against it.
			if err := waitQuiet(ctx, f); err != nil {
				res.invalid = append(res.invalid, err.Error())
			}
			r := step(w.ladder.rate(k), stepWindow)
			steps = append(steps, r)
			st := r.stats()
			res.attempted += st.OK + st.Failed
			res.failed += st.Failed
			if !st.generatorOK(w.maxLag()) {
				invalid++
				continue
			}
			valid++
			if st.meets(w.limitMs, conns, w.maxLag()) {
				stepStatsAt[k] = st
				return true
			}
		}
		return false
	})
	ladderAfter, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	res.invalid = append(res.invalid, crossCheck("ladder", steps, ladderBefore, ladderAfter)...)
	fmt.Fprintf(os.Stderr, "perfbench: closed-loop capacity %.0f/s, ladder steps %v, knee step %d\n", capacity, tried, knee)
	kneeRate, kneeThroughput := 0.0, 0.0
	kneeN := 0
	if knee >= 0 {
		st := stepStatsAt[knee]
		kneeRate = w.ladder.rate(knee)
		kneeThroughput = float64(st.OK) / stepWindow.Seconds()
		kneeN = st.OK
	}

	if err := refWindows(nWin / 2); err != nil {
		return nil, err
	}
	var lat, p99s []float64
	scheduled, failed := 0, 0
	for _, rw := range wins {
		lat = append(lat, rw.st.LatMs...)
		p99s = append(p99s, quantile(rw.st.LatMs, 0.99))
		scheduled += rw.st.Scheduled
		failed += rw.st.Failed + rw.st.Missed
	}

	var mem float64
	for _, p := range f.procs() {
		m, err := peakRSSMB(p.pid())
		if err != nil {
			return nil, err
		}
		mem += m
	}
	res.tail = tailMeasures(lat)
	var cpu time.Duration
	ok := 0
	for _, rw := range wins {
		ok += rw.st.OK
		for i := range rw.u0 {
			cpu += rw.u1[i].cpu - rw.u0[i].cpu
		}
	}
	res.e2e = e2eMeasures(setup, measure{"throughput_ops_s", "1/s", kneeThroughput, kneeN},
		measure{"latency_p50_ms", "ms", median(lat), len(lat)},
		measure{"latency_p99_ms", "ms", median(p99s), len(p99s)},
		measure{"knee_rps", "1/s", kneeRate, len(tried)},
		measure{"ops_per_cpu_s", "1/s", float64(ok) / cpu.Seconds(), ok},
		scheduled, failed, mem, len(f.procs()))

	if o.trace {
		end, err := f.scrape(ctx)
		if err != nil {
			return nil, err
		}
		layer := tr.measures(1)
		first := wins[0].r.first
		wire, err := wireMeasures(vs.bodies, vs.results,
			func(i int) int { return int(vs.stream[(first+i)%len(vs.stream)]) }, min(scheduled, 2000))
		if err != nil {
			return nil, err
		}
		layer = append(layer, wire...)
		layer = append(layer, serviceLayer(f, wins, start, end)...)
		layer = append(layer, httpSpans(wins)...)
		if f.router != nil {
			hop, n, err := hopProbe(ctx, f, tgt, 300)
			if err != nil {
				return nil, err
			}
			layer = append(layer, measure{"shard.hop.p50_us", "us", hop, n})
		}
		res.layer = completeLayer(layer, res.e2e)
	}
	return res, nil
}

// refWindow is one timed window at the reference rate, with the
// fleet's counters and the processes' usage around it.
type refWindow struct {
	r             *stepResult
	st            stepStats
	before, after fleetStats
	u0, u1        []procUsage
	gauges        []fleetStats // scraped every 50ms, traced runs only
}

// runRefWindow times one reference window. A window whose generator
// missed its schedule is not recorded: it runs up to three times, then
// the run gives up without a result.
func runRefWindow(ctx context.Context, f *fleet, trace bool, maxLag float64, run func() *stepResult) (*refWindow, error) {
	for attempt := 1; ; attempt++ {
		rw := &refWindow{}
		var err error
		if rw.before, err = f.scrape(ctx); err != nil {
			return nil, err
		}
		rw.u0 = usageOf(f.procs())
		var stopSampler func() []fleetStats
		if trace {
			stopSampler = sampleStats(ctx, f)
		}
		rw.r = run()
		if stopSampler != nil {
			rw.gauges = stopSampler()
		}
		rw.u1 = usageOf(f.procs())
		if rw.after, err = f.scrape(ctx); err != nil {
			return nil, err
		}
		rw.st = rw.r.stats()
		if rw.st.generatorOK(maxLag) {
			return rw, nil
		}
		if attempt == 3 {
			return nil, fmt.Errorf("generator off target at the reference rate: offered %.1f/s of %.1f/s, lag p99 %.2f ms",
				rw.st.Offered, rw.st.Target, rw.st.LagP99Ms)
		}
	}
}

// closedLoop sends back to back on conns connections for d and returns
// the rate of correct answers, the capacity the ladder search starts
// below, and how many answers were not correct.
func closedLoop(ctx context.Context, tgt *target, conns int, d time.Duration, seq *int) (float64, int) {
	var done, bad atomic.Int64
	var next atomic.Int64
	next.Store(int64(*seq))
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				if tgt.send(ctx, int(next.Add(1)-1), time.Time{}).fail == "" {
					done.Add(1)
				} else {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	*seq = int(next.Load())
	return float64(done.Load()) / d.Seconds(), int(bad.Load())
}

// waitQuiet waits, up to 3s, until no backend has queued or running
// jobs, store writes pending or replication pending.
func waitQuiet(ctx context.Context, f *fleet) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := f.scrape(ctx)
		if err != nil {
			return err
		}
		if st.QueueLen+st.Running+st.StorePending+st.ReplicationPending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet still busy 3s after a step: %+v", st.Stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// crossCheck compares what the generator saw with the fleet's own
// counters over the same phase; any disagreement invalidates the run.
func crossCheck(phase string, steps []*stepResult, before, after fleetStats) []string {
	var ok200, answered, transport int
	for _, r := range steps {
		for _, s := range r.samples {
			switch {
			case s.missed:
			case s.out.status == 0:
				transport++
			default:
				answered++
				if s.out.status == http.StatusOK {
					ok200++
				}
			}
		}
	}
	d := func(a, b uint64) int { return int(b - a) }
	submitted := d(before.Submitted, after.Submitted)
	finished := d(before.Solved, after.Solved) + d(before.CacheHits, after.CacheHits) +
		d(before.Failed, after.Failed) + d(before.Cancelled, after.Cancelled)
	var bad []string
	if submitted < ok200 || submitted > ok200+transport {
		bad = append(bad, fmt.Sprintf("%s: servers counted %d submissions, generator got %d answers (+%d transport errors)",
			phase, submitted, ok200, transport))
	}
	if transport == 0 && finished != submitted {
		bad = append(bad, fmt.Sprintf("%s: servers finished %d (solved+cache hits+failed+cancelled) of %d submitted",
			phase, finished, submitted))
	}
	if routed := d(before.Routed, after.Routed); after.Routed > 0 && (routed < answered || routed > answered+transport) {
		bad = append(bad, fmt.Sprintf("%s: router routed %d, generator got %d answers", phase, routed, answered))
	}
	return bad
}

// sampleStats scrapes the fleet every 50ms until the returned stop
// function is called; stop returns the samples.
func sampleStats(ctx context.Context, f *fleet) func() []fleetStats {
	done := make(chan struct{})
	var samples []fleetStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if st, err := f.scrape(ctx); err == nil {
					samples = append(samples, st)
				}
			}
		}
	}()
	return func() []fleetStats {
		close(done)
		wg.Wait()
		return samples
	}
}

// procUsage is one process's CPU and IO counters at an instant.
type procUsage struct {
	cpu time.Duration
	io  ioCounters
}

func usageOf(ps []*proc) []procUsage {
	out := make([]procUsage, len(ps))
	for i, p := range ps {
		out[i].cpu, _ = cpuTime(p.pid()) // a missing reading shows as 0 usage
		out[i].io, _ = readIO(p.pid())
	}
	return out
}

// serviceLayer derives the server, store, replication and shard layer
// metrics of the reference windows.
func serviceLayer(f *fleet, wins []*refWindow, start, end fleetStats) []measure {
	var d fleetStats // counter deltas summed over the windows
	var gauges []fleetStats
	var cpuServer, cpuRouter time.Duration
	var wbytes, wcalls float64
	scheduled, refused, dropped := 0, 0, 0
	for _, rw := range wins {
		b, a := rw.before, rw.after
		d.Submitted += a.Submitted - b.Submitted
		d.Solved += a.Solved - b.Solved
		d.CacheHits += a.CacheHits - b.CacheHits
		d.Coalesced += a.Coalesced - b.Coalesced
		d.ProblemsReused += a.ProblemsReused - b.ProblemsReused
		d.Replicated += a.Replicated - b.Replicated
		d.DurableAcks += a.DurableAcks - b.DurableAcks
		d.Routed += a.Routed - b.Routed
		d.Failovers += a.Failovers - b.Failovers
		gauges = append(gauges, rw.gauges...)
		for i, p := range f.procs() {
			dcpu := rw.u1[i].cpu - rw.u0[i].cpu
			if p == f.router {
				cpuRouter += dcpu
				continue
			}
			cpuServer += dcpu
			wbytes += rw.u1[i].io.WriteBytes - rw.u0[i].io.WriteBytes
			wcalls += rw.u1[i].io.WriteSyscalls - rw.u0[i].io.WriteSyscalls
		}
		scheduled += rw.st.Scheduled
		refused += rw.st.Statuses[http.StatusTooManyRequests]
		for _, s := range rw.r.samples {
			if s.out.noDurabilityHeader {
				dropped++
			}
		}
	}
	n := float64(max(scheduled, 1))
	gauge := func(get func(fleetStats) int) (avg, peak float64) {
		var xs []float64
		for _, g := range gauges {
			xs = append(xs, float64(get(g)))
		}
		return mean(xs), maxOf(xs)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	qMean, qMax := gauge(func(g fleetStats) int { return g.QueueLen })
	runMean, _ := gauge(func(g fleetStats) int { return g.Running })
	pMean, pMax := gauge(func(g fleetStats) int { return g.StorePending })
	_, segMax := gauge(func(g fleetStats) int { return g.StoreSegments })
	rpMean, rpMax := gauge(func(g fleetStats) int { return g.ReplicationPending })
	_, lagMax := gauge(func(g fleetStats) int { return int(g.ReplicationLag) })
	g := len(gauges)
	out := []measure{
		{"server.queue_len.mean", "count", qMean, g},
		{"server.queue_len.max", "count", qMax, g},
		{"server.running.mean", "count", runMean, g},
		{"server.cache_hit_ratio", "ratio", ratio(d.CacheHits, d.Submitted), int(d.Submitted)},
		{"server.coalesced_ratio", "ratio", ratio(d.Coalesced, d.Submitted), int(d.Submitted)},
		{"server.problems_reused_ratio", "ratio", ratio(d.ProblemsReused, d.Solved), int(d.Solved)},
		{"server.rejected", "count", float64(refused), scheduled},
		{"server.cpu_ms_per_req", "ms", ms(cpuServer) / n, scheduled},
		{"store.pending.mean", "count", pMean, g},
		{"store.pending.max", "count", pMax, g},
		{"store.bytes_written_per_req", "bytes", wbytes / n, scheduled},
		{"store.write_syscalls_per_req", "count", wcalls / n, scheduled},
		{"store.compactions", "count", float64(end.Compactions - start.Compactions), 1},
		{"store.segments.max", "count", segMax, g},
		{"store.errors", "count", float64(end.StoreErrors - start.StoreErrors), 1},
		{"replication.pending.mean", "count", rpMean, g},
		{"replication.pending.max", "count", rpMax, g},
		{"replication.lag.max", "count", lagMax, g},
		{"replication.ops_per_req", "count", float64(d.Replicated) / n, scheduled},
		{"replication.durable_ack_ratio", "ratio", float64(d.DurableAcks) / n, scheduled},
	}
	if f.router != nil {
		out = append(out,
			measure{"shard.routed", "count", float64(d.Routed), scheduled},
			measure{"shard.failovers", "count", float64(d.Failovers), scheduled},
			measure{"shard.cpu_ms_per_req", "ms", ms(cpuRouter) / n, scheduled},
			measure{"shard.durability_header_dropped", "count", float64(dropped), scheduled},
		)
	}
	return out
}

// httpSpans splits the reference windows' request time at the transport
// boundaries: waiting for a connection (from the due time), the round
// trip from request written to first response byte, and reading and
// checking the body.
func httpSpans(wins []*refWindow) []measure {
	var wait, rtt, read []float64
	for _, rw := range wins {
		for _, s := range rw.r.samples {
			if s.missed || s.out.connAt.IsZero() || s.out.headersAt.IsZero() || s.out.wroteAt.IsZero() {
				continue
			}
			wait = append(wait, ms(s.out.connAt.Sub(s.due)))
			rtt = append(rtt, ms(s.out.headersAt.Sub(s.out.wroteAt)))
			read = append(read, us(s.done.Sub(s.out.headersAt)))
		}
	}
	return []measure{
		{"http.conn_wait.p50_ms", "ms", quantile(wait, 0.5), len(wait)},
		{"http.conn_wait.p99_ms", "ms", quantile(wait, 0.99), len(wait)},
		{"http.rtt.p50_ms", "ms", quantile(rtt, 0.5), len(rtt)},
		{"http.rtt.p99_ms", "ms", quantile(rtt, 0.99), len(rtt)},
		{"http.read_verify.p50_us", "us", quantile(read, 0.5), len(read)},
	}
}

// hopProbe measures the router hop: n times, one hot variant goes
// through the router and then straight to the backend its job-ID prefix
// names. The result is the difference of the two medians, in us.
func hopProbe(ctx context.Context, f *fleet, tgt *target, n int) (float64, int, error) {
	var routed, direct []float64
	for i := 0; i < n; i++ {
		v := i % len(tgt.vs.bodies)
		t0 := time.Now()
		out, id := tgt.post(ctx, f.router.url+"/v1/solve", v)
		t1 := time.Now()
		if out.fail != "" {
			return 0, 0, fmt.Errorf("hop probe via router: %s", out.fail)
		}
		owner := -1
		for b := range f.backends {
			if strings.HasPrefix(id, fmt.Sprintf("s%d-", b)) {
				owner = b
			}
		}
		if owner < 0 {
			return 0, 0, fmt.Errorf("hop probe: job ID %q names no backend", id)
		}
		t2 := time.Now()
		if out, _ := tgt.post(ctx, f.backends[owner].url+"/v1/solve", v); out.fail != "" {
			return 0, 0, fmt.Errorf("hop probe direct: %s", out.fail)
		}
		direct = append(direct, us(time.Since(t2)))
		routed = append(routed, us(t1.Sub(t0)))
	}
	return median(routed) - median(direct), n, nil
}

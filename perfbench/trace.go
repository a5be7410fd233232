package main

import (
	"context"
	"runtime/metrics"
	"time"

	"repro/nocmap"
)

// solverPhases are the phases a Solve call passes through, as named by
// its progress events, plus "finish": the time from the last event to
// the return (final routing and scoring).
var solverPhases = []string{"initialize", "sweep", "slack", "cost", "expand", "finish"}

// tracedAlgorithms are the algorithms whose busy time is reported.
var tracedAlgorithms = []string{"nmap-single", "nmap-split", "pbb"}

// solverTrace accumulates the solver-layer view of traced Solve calls:
// self time per phase, busy time per algorithm, and counts. A phase's
// self time is the time from the previous event (or Solve entry) to the
// event that names it, so the phases tile each call.
type solverTrace struct {
	phase    map[string]time.Duration
	busy     map[string]time.Duration
	solves   int
	swaps    int
	sweeps   int
	expanded int
	allocs   uint64
}

func newSolverTrace() *solverTrace {
	return &solverTrace{phase: map[string]time.Duration{}, busy: map[string]time.Duration{}}
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// solve runs one Solve call under tracing and returns it with its
// wall time. It is not safe for concurrent use.
func (t *solverTrace) solve(ctx context.Context, p *nocmap.Problem, algorithm string, opts []nocmap.Option) (*nocmap.Result, time.Duration, error) {
	expanded := 0
	a0 := heapAllocBytes()
	start := time.Now()
	last := start
	progress := nocmap.WithProgress(func(ev nocmap.Event) {
		now := time.Now()
		t.phase[ev.Phase] += now.Sub(last)
		last = now
		switch ev.Phase {
		case "sweep", "slack", "cost":
			t.sweeps++
		case "expand":
			expanded = max(expanded, ev.Step)
		}
	})
	res, err := nocmap.Solve(ctx, p, append(opts[:len(opts):len(opts)], progress)...)
	end := time.Now()
	t.allocs += heapAllocBytes() - a0
	t.phase["finish"] += end.Sub(last)
	t.busy[algorithm] += end.Sub(start)
	t.solves++
	t.expanded += expanded
	if res != nil {
		t.swaps += res.Swaps
	}
	return res, end.Sub(start), err
}

// measures reports the solver layer, with times and counts per pass
// over the workload's problem set.
func (t *solverTrace) measures(passes int) []measure {
	per := func(d time.Duration) float64 { return ms(d) / float64(passes) }
	var out []measure
	for _, ph := range solverPhases {
		out = append(out, measure{"nocmap.phase." + ph + ".self_ms", "ms", per(t.phase[ph]), t.solves})
	}
	for _, alg := range tracedAlgorithms {
		out = append(out, measure{"nocmap.solve." + alg + ".busy_ms", "ms", per(t.busy[alg]), t.solves})
	}
	return append(out,
		measure{"nocmap.swaps", "count", float64(t.swaps) / float64(passes), t.solves},
		measure{"nocmap.sweeps", "count", float64(t.sweeps) / float64(passes), t.solves},
		measure{"nocmap.pbb.expanded", "count", float64(t.expanded) / float64(passes), t.solves},
		measure{"nocmap.alloc_bytes_per_solve", "bytes", float64(t.allocs) / float64(max(t.solves, 1)), t.solves},
	)
}

// Command perfbench is the repository's benchmark: it runs one named
// workload against the program built from this tree, checks every
// output, and prints its metrics. See README.md for the workloads, the
// metrics and what each layer metric should move.
//
//	bash perfbench/run.sh --workload solve-paper --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1. The lines before it print every metric, end-to-end ones
// too, with unit and sample count.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// measure is one reported number with the count of samples behind it.
type measure struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// runResult is what a workload hands back.
type runResult struct {
	e2e, layer []measure
	// tail is printed with the end-to-end metrics but not reported.
	tail []measure
	// attempted and failed count the workload's operations; failed
	// includes wrong results.
	attempted, failed int
	// invalid lists reasons the run cannot be trusted: wrong outputs,
	// or counters that disagree with the generator.
	invalid []string
}

// options are the flags every workload sees.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the nocmapd and nocmapsh binaries
	work     string // scratch directory for store directories
}

var workloads = map[string]func(context.Context, options) (*runResult, error){
	"solve-paper":      runSolvePaper,
	"serve-miss":       runServeMiss,
	"fleet-replicated": runFleetReplicated,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: solve-paper, serve-miss or fleet-replicated")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory with the nocmapd and nocmapsh binaries")
	flag.StringVar(&o.work, "work", "", "scratch directory for the services' stores")
	flag.Parse()
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (solve-paper|serve-miss|fleet-replicated), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	report(os.Stdout, o, res)
}

// report prints every measure as a table, then the one-line JSON result.
func report(w io.Writer, o options, res *runResult) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "  %-36s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, m := range res.e2e {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s %d\n", m.Name, m.Value, m.Unit, m.N)
		if m.Name == "latency_p99_ms" {
			for _, t := range res.tail {
				fmt.Fprintf(w, "  %-36s %14.6g %-6s %d\n", t.Name, t.Value, t.Unit, t.N)
			}
		}
		if m.Name == "success_frac" {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s %d\n", "failed_frac", 1-m.Value, m.Unit, m.N)
		}
	}
	if o.trace {
		layer := append([]measure(nil), res.layer...)
		sort.SliceStable(layer, func(i, k int) bool { return layer[i].Name < layer[k].Name })
		for _, m := range layer {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s %d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, why := range res.invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", why)
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(res.invalid) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	if o.trace {
		for _, m := range res.layer {
			out.Metrics[m.Name] = metric{m.Value, m.Unit}
		}
	} else {
		for _, m := range res.e2e {
			if boundedE2E[m.Name] {
				out.Metrics[m.Name] = metric{m.Value, m.Unit}
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

// e2eMeasures assembles the end-to-end metrics in their fixed order.
// p99 is the median of per-window p99s, each window holding at least
// 1000 timed operations, so a stall moves one window, not the figure;
// the whole-run tail is printed beside it. success_frac is 1 -
// failed_frac: a result holds metrics that are never 0, and failed_frac
// is 0 on a healthy run.
func e2eMeasures(setup []float64, throughput measure, p50 measure, p99 measure, knee measure, opsPerCPU measure, attempted, failed int, memMB float64, memN int) []measure {
	return []measure{
		{"setup_s", "s", median(setup), len(setup)},
		throughput,
		p50,
		p99,
		knee,
		opsPerCPU,
		{"success_frac", "ratio", 1 - float64(failed)/float64(max(attempted, 1)), attempted},
		{"mem_peak_mb", "MiB", memMB, memN},
	}
}

// boundedE2E are the end-to-end metrics the result line reports with
// --trace 0: those that hold a 25% bound from run to run on a shared
// 2-vCPU host. Wall-clock rates and tails (throughput_ops_s, knee_rps,
// latency_p99_ms) move with the host's CPU steal by more than that; a
// traced run reports them as e2e.* layer metrics and every run prints
// them.
var boundedE2E = map[string]bool{
	"setup_s": true, "latency_p50_ms": true, "ops_per_cpu_s": true,
	"success_frac": true, "mem_peak_mb": true,
}

// windowedP99 splits lat, in the order the operations were due, into as
// many consecutive windows as hold at least 1000 samples each and
// returns the p99 measure: the median of the windows' p99s.
func windowedP99(lat []float64) measure {
	k := max(len(lat)/1000, 1)
	var p99s []float64
	for w := 0; w < k; w++ {
		p99s = append(p99s, quantile(lat[w*len(lat)/k:(w+1)*len(lat)/k], 0.99))
	}
	return measure{"latency_p99_ms", "ms", median(p99s), k}
}

// tailMeasures are printed beside the end-to-end metrics, not reported
// in the JSON: the tail over the whole timed phase.
func tailMeasures(lat []float64) []measure {
	return []measure{
		{"latency_p99_whole_ms", "ms", quantile(lat, 0.99), len(lat)},
		{"latency_max_ms", "ms", maxOf(lat), len(lat)},
	}
}

// layerMetrics is every per-layer metric a traced run reports, with its
// unit, in report order. A workload reports 0 for a metric of a layer
// its requests never pass through (no router on serve-miss, no service
// on solve-paper, no split or PBB solves in the service inputs).
var layerMetrics = []struct{ name, unit string }{
	{"e2e.throughput_ops_s", "1/s"},
	{"e2e.latency_p99_ms", "ms"},
	{"e2e.knee_rps", "1/s"},
	{"nocmap.phase.initialize.self_ms", "ms"},
	{"nocmap.phase.sweep.self_ms", "ms"},
	{"nocmap.phase.slack.self_ms", "ms"},
	{"nocmap.phase.cost.self_ms", "ms"},
	{"nocmap.phase.expand.self_ms", "ms"},
	{"nocmap.phase.finish.self_ms", "ms"},
	{"nocmap.solve.nmap-single.busy_ms", "ms"},
	{"nocmap.solve.nmap-split.busy_ms", "ms"},
	{"nocmap.solve.pbb.busy_ms", "ms"},
	{"nocmap.swaps", "count"},
	{"nocmap.sweeps", "count"},
	{"nocmap.pbb.expanded", "count"},
	{"nocmap.alloc_bytes_per_solve", "bytes"},
	{"server.parse.p50_us", "us"},
	{"server.jobkey.p50_us", "us"},
	{"nocmap.result_marshal.p50_us", "us"},
	{"server.queue_len.mean", "count"},
	{"server.queue_len.max", "count"},
	{"server.running.mean", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced_ratio", "ratio"},
	{"server.problems_reused_ratio", "ratio"},
	{"server.rejected", "count"},
	{"server.cpu_ms_per_req", "ms"},
	{"store.pending.mean", "count"},
	{"store.pending.max", "count"},
	{"store.bytes_written_per_req", "bytes"},
	{"store.write_syscalls_per_req", "count"},
	{"store.compactions", "count"},
	{"store.segments.max", "count"},
	{"store.errors", "count"},
	{"replication.pending.mean", "count"},
	{"replication.pending.max", "count"},
	{"replication.lag.max", "count"},
	{"replication.ops_per_req", "count"},
	{"replication.durable_ack_ratio", "ratio"},
	{"shard.routed", "count"},
	{"shard.failovers", "count"},
	{"shard.cpu_ms_per_req", "ms"},
	{"shard.hop.p50_us", "us"},
	{"shard.durability_header_dropped", "count"},
	{"http.conn_wait.p50_ms", "ms"},
	{"http.conn_wait.p99_ms", "ms"},
	{"http.rtt.p50_ms", "ms"},
	{"http.rtt.p99_ms", "ms"},
	{"http.read_verify.p50_us", "us"},
}

// completeLayer orders a workload's layer measures as layerMetrics does
// and fills the layers the workload does not exercise with 0. The
// unbounded end-to-end metrics ride along under e2e.* names.
func completeLayer(got, e2e []measure) []measure {
	for _, m := range e2e {
		if !boundedE2E[m.Name] {
			m.Name = "e2e." + m.Name
			got = append(got, m)
		}
	}
	byName := map[string]measure{}
	for _, m := range got {
		byName[m.Name] = m
	}
	out := make([]measure, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		m, ok := byName[lm.name]
		if !ok {
			m = measure{Name: lm.name, Unit: lm.unit}
		}
		if m.Unit != lm.unit {
			panic(fmt.Sprintf("perfbench: %s reported in %s, declared in %s", m.Name, m.Unit, lm.unit))
		}
		delete(byName, lm.name)
		out = append(out, m)
	}
	for name := range byName {
		panic("perfbench: undeclared layer metric " + name)
	}
	return out
}

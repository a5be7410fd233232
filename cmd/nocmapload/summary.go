package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// ServiceResult is one recorded service-level benchmark run — the
// BENCH.json "service" entry format. The schema is golden-pinned
// (testdata/service_entry.golden.json): jobs/sec plus latency
// percentiles, never averages alone, next to everything needed to
// reproduce the run.
type ServiceResult struct {
	// Name groups runs into one control-chart history (e.g.
	// "solve-group" vs "solve-sync"); the XmR gate judges the newest
	// run of a name against the older runs of the same name.
	Name string `json:"name"`
	// Timestamp is the run's RFC3339 wall-clock time (informational;
	// excluded from all determinism guarantees).
	Timestamp string       `json:"timestamp,omitempty"`
	Seed      int64        `json:"seed"`
	Spec      WorkloadSpec `json:"spec"`
	// TargetRPS is the offered load; DurationS the sustained window.
	TargetRPS float64 `json:"target_rps"`
	DurationS float64 `json:"duration_s"`
	// Sent/Completed/Errors/Shed account for every request: Shed counts
	// sends skipped because all in-flight slots were busy (open-loop
	// shedding), Errors counts non-2xx responses (including durability
	// backpressure 429s — a shed disk is an error against offered load).
	Sent      int `json:"sent"`
	Completed int `json:"completed"`
	Errors    int `json:"errors"`
	Shed      int `json:"shed"`
	// JobsPerSec is completed jobs over the measured window (send of
	// the first request to completion of the last).
	JobsPerSec float64 `json:"jobs_per_sec"`
	// Latency percentiles over completed requests, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P85Ms float64 `json:"p85_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// percentile returns the q-quantile (0 < q <= 1) of sorted, by the
// nearest-rank method: the smallest value with at least q of the mass
// at or below it. Deterministic and monotone — exactly what a gate
// wants, no interpolation surprises.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// summarize folds raw latencies (milliseconds) into the percentile
// fields of r. The slice is sorted in place.
func (r *ServiceResult) summarize(latencies []float64) {
	sort.Float64s(latencies)
	r.Completed = len(latencies)
	r.P50Ms = round2(percentile(latencies, 0.50))
	r.P85Ms = round2(percentile(latencies, 0.85))
	r.P99Ms = round2(percentile(latencies, 0.99))
	if n := len(latencies); n > 0 {
		r.MaxMs = round2(latencies[n-1])
	}
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// benchFile mirrors cmd/benchjson's BENCH.json layout field for field
// (same order, so the two writers never churn the file against each
// other), with the kernel sections carried as raw JSON — nocmapload
// only owns the "service" section.
type benchFile struct {
	GoVersion  json.RawMessage `json:"go_version,omitempty"`
	GOMAXPROCS json.RawMessage `json:"gomaxprocs,omitempty"`
	Benchtime  json.RawMessage `json:"benchtime,omitempty"`
	Pattern    json.RawMessage `json:"pattern,omitempty"`
	Results    json.RawMessage `json:"results,omitempty"`
	Service    []ServiceResult `json:"service,omitempty"`
	Store      json.RawMessage `json:"store,omitempty"`
}

func readBenchFile(path string) (*benchFile, error) {
	bf := &benchFile{}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return bf, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, bf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return bf, nil
}

// appendResult records one run into path's service section, pruning
// each name's history to the newest keep entries.
func appendResult(path string, res ServiceResult, keep int) error {
	bf, err := readBenchFile(path)
	if err != nil {
		return err
	}
	bf.Service = append(bf.Service, res)
	if keep > 0 {
		pruned := bf.Service[:0]
		perName := make(map[string]int)
		for _, e := range bf.Service {
			perName[e.Name]++
		}
		drop := make(map[string]int)
		for name, n := range perName {
			if n > keep {
				drop[name] = n - keep // drop the oldest (earliest) extras
			}
		}
		for _, e := range bf.Service {
			if drop[e.Name] > 0 {
				drop[e.Name]--
				continue
			}
			pruned = append(pruned, e)
		}
		bf.Service = pruned
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// xmrLimits computes individuals-control-chart natural process limits
// from a history: mean ± 2.66 × mean moving range (the XmR constant for
// n=2 subgroups). With fewer than two points the limits collapse to
// ±inf — no gate without history.
func xmrLimits(history []float64) (lower, upper float64) {
	if len(history) < 2 {
		return math.Inf(-1), math.Inf(1)
	}
	var sum, mrSum float64
	for i, v := range history {
		sum += v
		if i > 0 {
			mrSum += math.Abs(v - history[i-1])
		}
	}
	mean := sum / float64(len(history))
	mr := mrSum / float64(len(history)-1)
	return mean - 2.66*mr, mean + 2.66*mr
}

// gateResult judges the newest run of name against the older runs of
// the same name with XmR natural process limits: jobs/sec below the
// lower limit or P99 above the upper limit is a statistically real
// regression, not run-to-run noise. Histories shorter than minHistory
// pass with a notice — limits from two or three points gate nothing
// but flakes.
func gateResult(bf *benchFile, name string, minHistory int) error {
	var runs []ServiceResult
	for _, e := range bf.Service {
		if e.Name == name {
			runs = append(runs, e)
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("no service entries named %q", name)
	}
	candidate := runs[len(runs)-1]
	history := runs[:len(runs)-1]
	if len(history) < minHistory {
		fmt.Printf("bench-service-gate: %s: %d prior runs (< %d) — recording only, not gating\n",
			name, len(history), minHistory)
		return nil
	}
	jobs := make([]float64, len(history))
	p99 := make([]float64, len(history))
	for i, e := range history {
		jobs[i] = e.JobsPerSec
		p99[i] = e.P99Ms
	}
	jobsLower, _ := xmrLimits(jobs)
	_, p99Upper := xmrLimits(p99)
	if candidate.JobsPerSec < jobsLower {
		return fmt.Errorf("%s: jobs/sec %.2f below XmR lower limit %.2f (history mean over %d runs)",
			name, candidate.JobsPerSec, jobsLower, len(history))
	}
	if candidate.P99Ms > p99Upper {
		return fmt.Errorf("%s: P99 %.2fms above XmR upper limit %.2fms (history over %d runs)",
			name, candidate.P99Ms, p99Upper, len(history))
	}
	fmt.Printf("bench-service-gate: %s OK — jobs/sec %.2f (limit %.2f), P99 %.2fms (limit %.2fms), %d-run history\n",
		name, candidate.JobsPerSec, jobsLower, candidate.P99Ms, p99Upper, len(history))
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func testSpec() WorkloadSpec {
	return WorkloadSpec{
		Mesh: "4x4", Cores: 8, Flows: 6, Variants: 16, Algorithm: "nmap-single",
	}
}

// TestGenerateDeterministic pins the reproducibility contract: the same
// seed and spec produce a byte-identical request stream, and a
// different seed produces a different one.
func TestGenerateDeterministic(t *testing.T) {
	a, err := generate(7, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(7, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 16 {
		t.Fatalf("stream lengths %d vs %d, want 16", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("variant %d differs across identical (seed, spec) runs:\n%s\n%s", i, a[i], b[i])
		}
	}
	c, err := generate(8, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed 7 and seed 8 generated identical streams")
	}
}

// TestGenerateBodiesAreValidSubmissions sanity-checks the stream shape:
// every body is a SubmitRequest carrying a parseable problem and the
// requested options.
func TestGenerateBodiesAreValidSubmissions(t *testing.T) {
	spec := testSpec()
	spec.Durability = "replicated"
	bodies, err := generate(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies {
		var req struct {
			Problem json.RawMessage `json:"problem"`
			Options struct {
				Algorithm  string `json:"algorithm"`
				Durability string `json:"durability"`
			} `json:"options"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if len(req.Problem) == 0 {
			t.Fatalf("variant %d has no problem", i)
		}
		if req.Options.Algorithm != "nmap-single" || req.Options.Durability != "replicated" {
			t.Fatalf("variant %d options = %+v", i, req.Options)
		}
	}
}

// TestGenerateRejectsImpossibleSpecs pins the validation errors.
func TestGenerateRejectsImpossibleSpecs(t *testing.T) {
	for name, spec := range map[string]WorkloadSpec{
		"bad-mesh":       {Mesh: "4by4", Cores: 4, Flows: 2, Variants: 1},
		"too-many-cores": {Mesh: "2x2", Cores: 9, Flows: 2, Variants: 1},
		"one-core":       {Mesh: "2x2", Cores: 1, Flows: 2, Variants: 1},
	} {
		if _, err := generate(1, spec); err == nil {
			t.Errorf("%s: generate accepted %+v", name, spec)
		}
	}
}

// TestServiceEntryGolden pins the BENCH.json service-entry schema: the
// recorded format is an interface other tooling (the gate, CI trend
// scripts) reads, so field renames must be deliberate.
func TestServiceEntryGolden(t *testing.T) {
	res := ServiceResult{
		Name:      "solve-group",
		Timestamp: "2026-08-08T12:00:00Z",
		Seed:      1,
		Spec:      testSpec(),
		TargetRPS: 200,
		DurationS: 10,
		Sent:      2000,
		Completed: 1998,
		Errors:    2,
		Shed:      0,
	}
	res.summarize([]float64{3.25, 4.5, 2.75, 9.125, 5})
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "service_entry.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate by updating %s): %v", golden, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service entry drifted from the golden schema:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestPercentileNearestRank pins the quantile method.
func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 5}, {0.85, 9}, {0.99, 10}, {1.0, 10}, {0.01, 1},
	} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty = %v, want 0", got)
	}
}

// TestAppendResultMergesAndPrunes pins the BENCH.json round trip: the
// kernel sections survive untouched, runs append under "service", and
// each name's history is pruned oldest-first.
func TestAppendResultMergesAndPrunes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	kernel := `{"go_version":"go1.x","results":[{"name":"K","ns_per_op":1}],` +
		`"store":[{"name":"append-during-compaction","ratio_p99":1.2}]}`
	if err := os.WriteFile(path, []byte(kernel), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res := ServiceResult{Name: "a", Seed: int64(i), Spec: testSpec()}
		if err := appendResult(path, res, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := appendResult(path, ServiceResult{Name: "b", Seed: 99, Spec: testSpec()}, 2); err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, bf.Results); err != nil {
		t.Fatal(err)
	}
	if compact.String() != `[{"name":"K","ns_per_op":1}]` {
		t.Fatalf("kernel results damaged: %s", compact.String())
	}
	compact.Reset()
	if err := json.Compact(&compact, bf.Store); err != nil {
		t.Fatal(err)
	}
	if compact.String() != `[{"name":"append-during-compaction","ratio_p99":1.2}]` {
		t.Fatalf("store section damaged: %s", compact.String())
	}
	var aSeeds []int64
	bCount := 0
	for _, e := range bf.Service {
		switch e.Name {
		case "a":
			aSeeds = append(aSeeds, e.Seed)
		case "b":
			bCount++
		}
	}
	if len(aSeeds) != 2 || aSeeds[0] != 2 || aSeeds[1] != 3 {
		t.Fatalf("history for a = %v, want the newest two [2 3]", aSeeds)
	}
	if bCount != 1 {
		t.Fatalf("history for b = %d entries, want 1", bCount)
	}
}

// TestXmRGate pins the control-chart gate: a candidate inside the
// natural process limits passes, a collapse in jobs/sec or a blowout in
// P99 fails, and a short history only records.
func TestXmRGate(t *testing.T) {
	entry := func(name string, jobs, p99 float64) ServiceResult {
		return ServiceResult{Name: name, JobsPerSec: jobs, P99Ms: p99, Spec: testSpec()}
	}
	history := []ServiceResult{
		entry("s", 100, 10), entry("s", 102, 11), entry("s", 98, 9), entry("s", 101, 10),
	}
	pass := &benchFile{Service: append(append([]ServiceResult{}, history...), entry("s", 99, 10.5))}
	if err := gateResult(pass, "s", 4); err != nil {
		t.Fatalf("in-limits candidate failed the gate: %v", err)
	}
	slow := &benchFile{Service: append(append([]ServiceResult{}, history...), entry("s", 50, 10))}
	if err := gateResult(slow, "s", 4); err == nil {
		t.Fatal("halved jobs/sec passed the gate")
	}
	tail := &benchFile{Service: append(append([]ServiceResult{}, history...), entry("s", 100, 40))}
	if err := gateResult(tail, "s", 4); err == nil {
		t.Fatal("4x P99 passed the gate")
	}
	short := &benchFile{Service: []ServiceResult{entry("s", 100, 10), entry("s", 1, 999)}}
	if err := gateResult(short, "s", 4); err != nil {
		t.Fatalf("short history must record, not gate: %v", err)
	}
	if err := gateResult(&benchFile{}, "missing", 4); err == nil {
		t.Fatal("gating an unknown name must fail")
	}
}

// TestXmRLimits pins the individuals-chart arithmetic: mean ± 2.66 ×
// mean moving range.
func TestXmRLimits(t *testing.T) {
	lower, upper := xmrLimits([]float64{10, 12, 11, 13})
	mean, mr := 11.5, (2.0+1.0+2.0)/3.0
	if math.Abs(lower-(mean-2.66*mr)) > 1e-9 || math.Abs(upper-(mean+2.66*mr)) > 1e-9 {
		t.Fatalf("limits = (%v, %v), want mean %v ± 2.66×%v", lower, upper, mean, mr)
	}
	lower, upper = xmrLimits([]float64{5})
	if !math.IsInf(lower, -1) || !math.IsInf(upper, 1) {
		t.Fatalf("one-point history must not produce limits: (%v, %v)", lower, upper)
	}
}

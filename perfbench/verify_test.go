package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/nocmap/server"
)

// TestCorruptedResponseCountsAsFailed serves the expected answer with
// one result byte changed: every such response must count as failed.
func TestCorruptedResponseCountsAsFailed(t *testing.T) {
	vs, err := buildVariants(context.Background(), 1, 4, variantCores, variantFlows, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var corrupt atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, canon, spec, serr := server.ParseSubmit(mustRead(t, r))
		if serr != nil {
			t.Error(serr)
			return
		}
		key := server.JobKey(canon, spec)
		for v, body := range vs.bodies {
			_, c, s, _ := server.ParseSubmit(body)
			if server.JobKey(c, s) != key {
				continue
			}
			res := append([]byte(nil), vs.want[v]...)
			if corrupt.Load() {
				// Change one digit: still valid JSON, no longer the result.
				i := bytes.IndexAny(res, "0123456789")
				res[i] = '0' + (res[i]-'0'+1)%10
			}
			_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "j", State: server.StateDone, Result: res})
			return
		}
		t.Error("unknown body")
	}))
	defer srv.Close()
	tgt := &target{client: srv.Client(), url: srv.URL, vs: vs}
	cfg := stepConfig{Rate: 100, Window: 200 * time.Millisecond, Conns: 2, Drain: time.Second}

	if st := runStep(context.Background(), cfg, 0, tgt.send).stats(); st.OK != st.Scheduled {
		t.Fatalf("intact answers: %d ok of %d (%v)", st.OK, st.Scheduled, st.Fails)
	}
	corrupt.Store(true)
	st := runStep(context.Background(), cfg, 0, tgt.send).stats()
	if st.Failed != st.Scheduled || st.Fails["wrong_result"] != st.Scheduled {
		t.Fatalf("corrupted answers: failed %d of %d (%v)", st.Failed, st.Scheduled, st.Fails)
	}
}

// TestDegradedDurabilityCountsAsFailed checks the durability check: an
// answer whose JobStatus reports async-degraded fails, with or without
// the header.
func TestDegradedDurabilityCountsAsFailed(t *testing.T) {
	for _, tc := range []struct {
		body, header string
		fail         string
	}{
		{server.DurabilityReplicated, "", ""},
		{server.DurabilityReplicated, server.DurabilityReplicated, ""},
		{server.DurabilityDegraded, "", "degraded"},
		{server.DurabilityReplicated, server.DurabilityDegraded, "degraded"},
	} {
		rec := httptest.NewRecorder()
		if tc.header != "" {
			rec.Header().Set("X-Nocmap-Durability", tc.header)
		}
		_ = json.NewEncoder(rec).Encode(server.JobStatus{State: server.StateDone, Result: json.RawMessage(`{}`), Durability: tc.body})
		if _, fail := verify(rec.Result(), []byte(`{}`), server.DurabilityReplicated); fail != tc.fail {
			t.Errorf("body %q header %q: fail %q, want %q", tc.body, tc.header, fail, tc.fail)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists and
// the metrics this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(wl)
	sort.Strings(have)
	if len(wl) != len(have) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", wl, have)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	units := map[string]string{"setup_s": "s", "latency_p50_ms": "ms", "ops_per_cpu_s": "1/s", "success_frac": "ratio", "mem_peak_mb": "MiB"}
	if len(e2e) != len(boundedE2E) {
		t.Errorf("end_to_end: %v, code reports %v", e2e, boundedE2E)
	}
	for name := range boundedE2E {
		if e2e[name] != units[name] {
			t.Errorf("end_to_end %s: unit %q, code %q", name, e2e[name], units[name])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer has %d metrics, code %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, code %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

func mustRead(t *testing.T, r *http.Request) []byte {
	var raw json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		t.Error(err)
	}
	return raw
}

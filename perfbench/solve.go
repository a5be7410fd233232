package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/nocmap"
	"repro/nocmap/server"
)

// paperDigest is the SHA-256 over the JSON results of the paper's seven
// applications under nmap-single, nmap-split (all paths) and pbb with
// FastQueue, in solveMix order. Those inputs do not depend on the seed,
// so every run must reproduce it.
const paperDigest = "edb85cbbc5b695fc8ab976b63c9674ba8d72739bc3f463f6625d664bea55bd06"

// randomApps is how many seeded random applications (nmap-single) a
// solve-paper pass holds: enough that swap sweeps take a share of a pass
// comparable to MCF (nmap-split) and PBB. Their sizes step evenly from
// 25 to 128 cores whatever the seed, so the seed changes the graphs but
// hardly the work.
const randomApps = 96

// solveCall is one Solve call of the solve-paper pass.
type solveCall struct {
	name string
	app  nocmap.App
	// linkBW is the links' bandwidth; 0 gives 10x the application's
	// total traffic, the tools' stand-in for an unconstrained network.
	linkBW    float64
	problem   *nocmap.Problem
	algorithm string
	spec      server.SolveSpec
	paper     bool
}

// solveMix lists one pass: each paper application under nmap-single,
// nmap-split and pbb (FastQueue; the legacy queue is the reproduction's
// and is not a tuning target) on unconstrained links, PIP under
// nmap-split on links too thin for any mapping (only there does the
// split refinement run its slack phase), then the seeded random
// applications under nmap-single.
func solveMix(seed int64) ([]solveCall, error) {
	var calls []solveCall
	for _, app := range nocmap.Benchmarks() {
		if app.Graph.Name == "PIP" {
			calls = append(calls, solveCall{name: "PIP/nmap-split@51MB/s", app: app, linkBW: 51,
				algorithm: "nmap-split", spec: server.SolveSpec{Algorithm: "nmap-split"}, paper: true})
		}
		for _, spec := range []server.SolveSpec{
			{Algorithm: "nmap-single"},
			{Algorithm: "nmap-split", Split: server.SplitAllPaths},
			{Algorithm: "pbb", FastQueue: true},
		} {
			calls = append(calls, solveCall{name: app.Graph.Name + "/" + spec.Algorithm,
				app: app, algorithm: spec.Algorithm, spec: spec, paper: true})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < randomApps; i++ {
		n := 25 + i*(128-25)/(randomApps-1)
		app, err := nocmap.RandomApp(n, rng.Int63())
		if err != nil {
			return nil, err
		}
		calls = append(calls, solveCall{name: fmt.Sprintf("random-%d/nmap-single", n),
			app: app, algorithm: "nmap-single", spec: server.SolveSpec{Algorithm: "nmap-single"}})
	}
	return calls, nil
}

// buildProblems is the solve-paper set-up: construct and validate every
// problem of the pass.
func buildProblems(calls []solveCall) error {
	for i := range calls {
		app, bw := calls[i].app, calls[i].linkBW
		if bw == 0 {
			bw = app.Graph.TotalWeight() * 10
		}
		mesh, err := nocmap.NewMesh(app.W, app.H, bw)
		if err != nil {
			return err
		}
		if calls[i].problem, err = nocmap.NewProblem(app.Graph, mesh); err != nil {
			return fmt.Errorf("%s: %w", calls[i].name, err)
		}
	}
	return nil
}

// checkResult is the independent check on a first-pass result: the
// assignment must be a valid mapping of the problem whose
// communication cost is the one reported.
func checkResult(p *nocmap.Problem, res *nocmap.Result) error {
	m, err := p.MappingOf(res.Assignment)
	if err != nil {
		return err
	}
	if got := m.CommCost(); got != res.Cost.Comm {
		return fmt.Errorf("reported comm cost %v, mapping costs %v", res.Cost.Comm, got)
	}
	return nil
}

func runSolvePaper(ctx context.Context, o options) (*runResult, error) {
	calls, err := solveMix(o.seed)
	if err != nil {
		return nil, err
	}
	var setup []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if err := buildProblems(calls); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	var tr *solverTrace
	if o.trace {
		tr = newSolverTrace()
	}
	res := &runResult{}
	first := make([][]byte, len(calls))
	perCall := make([][]float64, len(calls))
	var lat []float64
	var busy time.Duration
	passes := 0
	cpu0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	window := time.Duration(o.seconds * float64(time.Second))
	for passes == 0 || time.Since(start) < window {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, c := range calls {
			opts := c.spec.Options()
			var r *nocmap.Result
			var d time.Duration
			var err error
			if tr != nil {
				r, d, err = tr.solve(ctx, c.problem, c.algorithm, opts)
			} else {
				t0 := time.Now()
				r, err = nocmap.Solve(ctx, c.problem, opts...)
				d = time.Since(t0)
			}
			res.attempted++
			lat = append(lat, ms(d))
			perCall[i] = append(perCall[i], ms(d))
			busy += d
			if bad := checkCall(c, r, err, passes == 0, &first[i]); bad != "" {
				res.failed++
				if len(res.invalid) < 20 {
					res.invalid = append(res.invalid, bad)
				}
			}
		}
		passes++
	}

	cpu1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for i, c := range calls {
		if c.paper {
			h.Write(first[i])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != paperDigest {
		res.invalid = append(res.invalid, "paper results digest "+got+" != reference "+paperDigest)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes of %d solves\n", passes, len(calls))

	mem, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	throughput := float64(res.attempted) / busy.Seconds()
	// One closed-loop caller has no offered rate to sweep: its knee is
	// the rate it sustains, the throughput.
	res.tail = tailMeasures(lat)
	res.e2e = e2eMeasures(setup, measure{"throughput_ops_s", "1/s", throughput, res.attempted},
		measure{"latency_p50_ms", "ms", geoMeanOfMedians(perCall), res.attempted},
		windowedP99(lat), measure{"knee_rps", "1/s", throughput, res.attempted},
		measure{"ops_per_cpu_s", "1/s", float64(res.attempted) / (cpu1 - cpu0).Seconds(), res.attempted},
		res.attempted, res.failed, mem, 1)

	if o.trace {
		layer := tr.measures(passes)
		bodies := make([][]byte, len(calls))
		results := make([]*nocmap.Result, len(calls))
		for i, c := range calls {
			raw, err := json.Marshal(c.problem)
			if err != nil {
				return nil, err
			}
			if bodies[i], err = json.Marshal(server.SubmitRequest{Problem: raw, Options: c.spec}); err != nil {
				return nil, err
			}
			results[i] = new(nocmap.Result)
			if err := json.Unmarshal(first[i], results[i]); err != nil {
				return nil, err
			}
		}
		wire, err := wireMeasures(bodies, results, func(i int) int { return i % len(calls) }, 10*len(calls))
		if err != nil {
			return nil, err
		}
		res.layer = completeLayer(append(layer, wire...), res.e2e)
	}
	return res, nil
}

// checkCall checks one Solve call. On the first pass it validates the
// result and keeps its JSON; later passes must reproduce those bytes.
func checkCall(c solveCall, r *nocmap.Result, err error, firstPass bool, keep *[]byte) string {
	if err != nil {
		return c.name + ": " + err.Error()
	}
	b, err := json.Marshal(r)
	if err != nil {
		return c.name + ": " + err.Error()
	}
	if firstPass {
		if err := checkResult(c.problem, r); err != nil {
			return c.name + ": " + err.Error()
		}
		*keep = b
		return ""
	}
	if !bytes.Equal(b, *keep) {
		return c.name + ": result differs from the first pass"
	}
	return ""
}

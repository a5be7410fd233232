package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/nocmap"
	"repro/nocmap/server"
)

// variantSet is a service workload's inputs: request bodies, the result
// each must be answered with, and the seeded order they are sent in.
type variantSet struct {
	bodies [][]byte
	// want holds json.Marshal of the in-process nocmap.Solve result per
	// variant: a correct answer carries exactly these bytes.
	want    [][]byte
	results []*nocmap.Result
	stream  []int32
}

// streamLen is how many draws the request stream holds before it wraps;
// no run sends that many requests.
const streamLen = 1 << 18

// buildVariants makes n distinct-seeded problems of `cores` cores with
// `flows` random flows (5..50 MB/s) on a 4x4 mesh of 1000 MB/s links,
// solves each in-process exactly as the server will (same parse, same
// options), and draws a uniform request stream over them. With a trace
// the set-up solves are traced: they are the solver work these inputs
// cost.
func buildVariants(ctx context.Context, seed int64, n, cores, flows int, durability string, tr *solverTrace) (*variantSet, error) {
	rng := rand.New(rand.NewSource(seed))
	vs := &variantSet{}
	for v := 0; v < n; v++ {
		app := nocmap.NewCoreGraph(fmt.Sprintf("bench-%d-%d", seed, v))
		seen := map[[2]int]bool{}
		for len(seen) < flows {
			a, b := rng.Intn(cores), rng.Intn(cores-1)
			if b >= a {
				b++
			}
			bw := float64(5 + rng.Intn(46))
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			app.Connect(fmt.Sprintf("c%d", a), fmt.Sprintf("c%d", b), bw)
		}
		mesh, err := nocmap.NewMesh(4, 4, 1000)
		if err != nil {
			return nil, err
		}
		p, err := nocmap.NewProblem(app, mesh)
		if err != nil {
			return nil, fmt.Errorf("variant %d: %w", v, err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.SubmitRequest{Problem: raw,
			Options: server.SolveSpec{Algorithm: "nmap-single", Durability: durability}})
		if err != nil {
			return nil, err
		}
		parsed, _, spec, serr := server.ParseSubmit(body)
		if serr != nil {
			return nil, fmt.Errorf("variant %d: %v", v, serr)
		}
		var res *nocmap.Result
		if tr != nil {
			res, _, err = tr.solve(ctx, parsed, spec.Algorithm, spec.Options())
		} else {
			res, err = nocmap.Solve(ctx, parsed, spec.Options()...)
		}
		if err != nil {
			return nil, fmt.Errorf("variant %d: solve: %w", v, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		vs.bodies = append(vs.bodies, body)
		vs.want = append(vs.want, want)
		vs.results = append(vs.results, res)
	}
	vs.stream = make([]int32, streamLen)
	for i := range vs.stream {
		vs.stream[i] = int32(rng.Intn(n))
	}
	return vs, nil
}

// verify classifies one service response: "" when it is a 200 whose
// JobStatus is done with exactly the expected result bytes and, when
// durability is set, reports that durability. The JobStatus field is
// checked, and the X-Nocmap-Durability header must agree with it when
// present: nocmapsh relays a backend's body but not that header. It
// returns the decoded status too.
func verify(resp *http.Response, want []byte, durability string) (server.JobStatus, string) {
	var st server.JobStatus
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return st, "read"
	case resp.StatusCode == http.StatusTooManyRequests:
		return st, "refused"
	case resp.StatusCode != http.StatusOK:
		return st, "status"
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, "decode"
	}
	if st.State != server.StateDone {
		return st, "state"
	}
	if !bytes.Equal(st.Result, want) {
		return st, "wrong_result"
	}
	if durability != "" {
		h := resp.Header.Get("X-Nocmap-Durability")
		if st.Durability != durability || (h != "" && h != durability) {
			return st, "degraded"
		}
	}
	return st, ""
}

// wireMeasures times, in-process on the run's own request stream, the
// three per-request steps the program repeats outside the solver:
// decoding a body, hashing its key, and marshaling a result.
func wireMeasures(bodies [][]byte, results []*nocmap.Result, order func(i int) int, n int) ([]measure, error) {
	var parse, key, marshal []float64
	for i := 0; i < n; i++ {
		v := order(i)
		t0 := time.Now()
		_, canon, spec, serr := server.ParseSubmit(bodies[v])
		t1 := time.Now()
		if serr != nil {
			return nil, serr
		}
		_ = server.JobKey(canon, spec)
		t2 := time.Now()
		if _, err := json.Marshal(results[v]); err != nil {
			return nil, err
		}
		t3 := time.Now()
		parse = append(parse, us(t1.Sub(t0)))
		key = append(key, us(t2.Sub(t1)))
		marshal = append(marshal, us(t3.Sub(t2)))
	}
	return []measure{
		{"server.parse.p50_us", "us", median(parse), n},
		{"server.jobkey.p50_us", "us", median(key), n},
		{"nocmap.result_marshal.p50_us", "us", median(marshal), n},
	}, nil
}

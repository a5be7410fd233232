// Command nocmapload is the repository's service-level load benchmark:
// a seeded, deterministic load generator that drives a running nocmapd
// (or nocmapsh front door) at a sustained request rate and reports
// jobs/sec with P50/P85/P99 latency. Results land in BENCH.json's
// "service" section next to the kernel numbers, and -gate judges the
// newest run against its recorded history with XmR control-chart
// limits, so service throughput and tail latency regress loudly.
//
//	nocmapload -url http://127.0.0.1:8537 -rps 200 -duration 10s
//	nocmapload -seed 7 -variants 128 -durability replicated
//	nocmapload -dump                    # print the request stream, no server
//	nocmapload -gate solve-group        # judge newest recorded run, no load
//
// The request stream is a pure function of -seed and the workload spec:
// two runs with the same flags POST byte-identical bodies in the same
// order. Load is open-loop — the generator holds its send rate as the
// server slows, shedding (not queueing) when all in-flight slots are
// busy, so latency numbers reflect the offered rate rather than
// coordinated omission.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8537", "base URL of the nocmapd/nocmapsh to drive")
	rps := flag.Float64("rps", 50, "sustained request rate to offer (open loop)")
	duration := flag.Duration("duration", 10*time.Second, "how long to offer load")
	seed := flag.Int64("seed", 1, "workload seed: same seed + spec = byte-identical request stream")
	concurrency := flag.Int("concurrency", 64, "max in-flight requests; ticks beyond this are shed, not queued")
	mesh := flag.String("mesh", "4x4", "mesh geometry WxH")
	cores := flag.Int("cores", 8, "application cores per problem")
	flows := flag.Int("flows", 6, "random flows per problem")
	variants := flag.Int("variants", 64, "distinct problems the stream cycles through")
	algorithm := flag.String("algorithm", "nmap-single", "solve algorithm to request")
	durability := flag.String("durability", "", `submission durability class ("" async, "replicated")`)
	name := flag.String("name", "solve", "BENCH.json entry name; runs sharing a name form one gate history")
	out := flag.String("out", "BENCH.json", "record the run here (empty: print only)")
	history := flag.Int("history", 20, "runs kept per name in the BENCH.json history")
	dump := flag.Bool("dump", false, "print the generated request stream to stdout and exit (no server)")
	gate := flag.String("gate", "", "gate mode: judge the newest recorded run of this name against its history, no load run")
	gateMinHistory := flag.Int("gate-min-history", 4, "prior runs required before the gate enforces limits")
	flag.Parse()

	spec := WorkloadSpec{
		Mesh:       *mesh,
		Cores:      *cores,
		Flows:      *flows,
		Variants:   *variants,
		Algorithm:  *algorithm,
		Durability: *durability,
	}

	if *gate != "" {
		bf, err := readBenchFile(*out)
		if err != nil {
			fatal(err)
		}
		if err := gateResult(bf, *gate, *gateMinHistory); err != nil {
			fatal(fmt.Errorf("GATE FAIL: %w", err))
		}
		return
	}

	bodies, err := generate(*seed, spec)
	if err != nil {
		fatal(err)
	}
	if *dump {
		for _, b := range bodies {
			os.Stdout.Write(append(b, '\n'))
		}
		return
	}

	res := runLoad(*url, bodies, *rps, *duration, *concurrency)
	res.Name = *name
	res.Timestamp = time.Now().UTC().Format(time.RFC3339)
	res.Seed = *seed
	res.Spec = spec
	res.TargetRPS = *rps

	fmt.Printf("nocmapload: %s: %.1f jobs/sec (%d completed, %d errors, %d shed of %d offered over %.1fs)\n",
		res.Name, res.JobsPerSec, res.Completed, res.Errors, res.Shed, res.Sent+res.Shed, res.DurationS)
	fmt.Printf("nocmapload: latency ms: p50=%.2f p85=%.2f p99=%.2f max=%.2f\n",
		res.P50Ms, res.P85Ms, res.P99Ms, res.MaxMs)

	if res.Completed == 0 {
		fatal(fmt.Errorf("no requests completed against %s — is the server up?", *url))
	}
	if *out != "" {
		if err := appendResult(*out, res, *history); err != nil {
			fatal(err)
		}
		fmt.Printf("nocmapload: recorded %q into %s\n", res.Name, *out)
	}
}

// runLoad offers the request stream at rate rps for the given duration,
// round-robining over bodies, and folds completions into a
// ServiceResult. In-flight requests are drained (and counted) after the
// offering window closes, so jobs/sec never credits abandoned work.
func runLoad(base string, bodies [][]byte, rps float64, duration time.Duration, concurrency int) ServiceResult {
	if rps <= 0 || concurrency < 1 || len(bodies) == 0 {
		fatal(fmt.Errorf("need -rps > 0, -concurrency >= 1 and a non-empty stream"))
	}
	client := &http.Client{}
	target := base + "/v1/solve"

	var (
		mu        sync.Mutex
		latencies []float64
		errors    int
		wg        sync.WaitGroup
	)
	slots := make(chan struct{}, concurrency)
	for i := 0; i < concurrency; i++ {
		slots <- struct{}{}
	}

	interval := time.Duration(float64(time.Second) / rps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(duration)

	res := ServiceResult{}
	start := time.Now()
offer:
	for {
		select {
		case <-deadline:
			break offer
		case <-ticker.C:
			select {
			case <-slots:
			default:
				res.Shed++ // all in-flight slots busy: shed, don't queue
				continue
			}
			body := bodies[res.Sent%len(bodies)]
			res.Sent++
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { slots <- struct{}{} }()
				t0 := time.Now()
				ok := doSolve(client, target, body)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				if ok {
					latencies = append(latencies, ms)
				} else {
					errors++
				}
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res.DurationS = round2(elapsed.Seconds())
	res.Errors = errors
	res.summarize(latencies)
	if elapsed > 0 {
		res.JobsPerSec = round2(float64(res.Completed) / elapsed.Seconds())
	}
	return res
}

// doSolve POSTs one body to the blocking solve endpoint and reports
// whether the server acknowledged it with a 2xx.
func doSolve(client *http.Client, target string, body []byte) bool {
	resp, err := client.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocmapload:", err)
	os.Exit(1)
}

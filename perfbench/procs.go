package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/nocmap/server"
)

// listenLine is how nocmapd and nocmapsh announce their address.
var listenLine = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// logTail keeps a process's recent standard error for error messages
// and spots its listen line.
type logTail struct {
	mu    sync.Mutex
	buf   []byte
	found bool
	addr  chan string // buffered 1: the listen address, sent once
}

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if m := listenLine.FindSubmatch(l.buf); m != nil && !l.found {
		l.found = true
		l.addr <- string(m[1])
	}
	if len(l.buf) > 16<<10 {
		l.buf = append([]byte(nil), l.buf[len(l.buf)-8<<10:]...)
	}
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.TrimSpace(string(l.buf))
}

// proc is one running service process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	url    string
	log    *logTail
	exited chan struct{} // closed once Wait returned
}

// startProc starts bin with args and waits until it announces its
// listen address.
func startProc(ctx context.Context, name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, log: &logTail{addr: make(chan string, 1)}, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = p.log
	// Should the benchmark itself be killed, the kernel kills the service too.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = p.cmd.Wait() // an exit is reported through p.exited
		close(p.exited)
	}()
	select {
	case p.url = <-p.log.addr:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.log)
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	p.stop()
	return nil, fmt.Errorf("%s did not start listening: %s", name, p.log)
}

// stop sends SIGTERM, escalates to SIGKILL after 10s, and waits for the
// process to exit.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.exited:
		return
	case <-time.After(10 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.exited
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// ctlClient serves readiness checks, stats scrapes and probes: never
// the generator's connections.
var ctlClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := ctlClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitFor polls cond every 2ms until it holds, for at most 30s.
func waitFor(ctx context.Context, what string, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func healthy(ctx context.Context, base string) bool {
	var h struct {
		Status string `json:"status"`
	}
	return getJSON(ctx, base+"/healthz", &h) == nil && h.Status == "ok"
}

// fleet is the program under test: one or more durable nocmapd
// backends, optionally behind a probing nocmapsh router.
type fleet struct {
	backends []*proc
	router   *proc
	dirs     []string
}

// entry is the URL the generator sends to.
func (f *fleet) entry() string {
	if f.router != nil {
		return f.router.url
	}
	return f.backends[0].url
}

func (f *fleet) procs() []*proc {
	if f.router == nil {
		return f.backends
	}
	return append(append([]*proc(nil), f.backends...), f.router)
}

// stop stops every process and removes the store directories.
func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.stop()
	}
	for _, d := range f.dirs {
		_ = os.RemoveAll(d) // scratch space inside the checkout
	}
}

// startFleet starts n durable backends in fresh store directories under
// work, plus a probing router when router is set, and returns once the
// fleet can take load: every process healthy and, with a router, every
// backend holding the replication targets the router pushed. Only
// -addr, -store, -id-prefix, -backends and -probe are passed; every
// other flag keeps its default.
func startFleet(ctx context.Context, o options, work string, n int, router bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		dir := filepath.Join(work, fmt.Sprintf("s%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		f.dirs = append(f.dirs, dir)
	}
	type started struct {
		i   int
		p   *proc
		err error
	}
	ch := make(chan started, n)
	for i := 0; i < n; i++ {
		go func() {
			p, err := startProc(ctx, fmt.Sprintf("nocmapd s%d", i), filepath.Join(o.bin, "nocmapd"),
				"-addr", "127.0.0.1:0", "-store", f.dirs[i], "-id-prefix", fmt.Sprintf("s%d-", i))
			ch <- started{i, p, err}
		}()
	}
	f.backends = make([]*proc, n)
	var firstErr error
	for i := 0; i < n; i++ {
		s := <-ch
		f.backends[s.i] = s.p
		if s.err != nil && firstErr == nil {
			firstErr = s.err
		}
	}
	if firstErr != nil {
		f.backends = compact(f.backends)
		f.stop()
		return nil, firstErr
	}
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	for _, b := range f.backends {
		if err := waitFor(ctx, b.name+" health", func() bool { return healthy(ctx, b.url) }); err != nil {
			return fail(err)
		}
	}
	if !router {
		return f, nil
	}
	urls := make([]string, n)
	for i, b := range f.backends {
		urls[i] = b.url
	}
	rp, err := startProc(ctx, "nocmapsh", filepath.Join(o.bin, "nocmapsh"),
		"-addr", "127.0.0.1:0", "-backends", strings.Join(urls, ","), "-probe", "1s")
	if err != nil {
		return fail(err)
	}
	f.router = rp
	if err := waitFor(ctx, "router health", func() bool { return healthy(ctx, rp.url) }); err != nil {
		return fail(err)
	}
	for _, b := range f.backends {
		err := waitFor(ctx, b.name+" replication targets", func() bool {
			var info server.Info
			return getJSON(ctx, b.url+"/v1/info", &info) == nil && len(info.ReplicaTargets) > 0
		})
		if err != nil {
			return fail(err)
		}
	}
	return f, nil
}

func compact(ps []*proc) []*proc {
	var out []*proc
	for _, p := range ps {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// fleetStats is one scrape of the whole fleet: backend counters summed,
// plus the router's own counters.
type fleetStats struct {
	server.Stats
	Routed, Failovers uint64
}

func (f *fleet) scrape(ctx context.Context) (fleetStats, error) {
	var fs fleetStats
	for _, b := range f.backends {
		var st server.Stats
		if err := getJSON(ctx, b.url+"/v1/stats", &st); err != nil {
			return fs, err
		}
		fs.Submitted += st.Submitted
		fs.Solved += st.Solved
		fs.Failed += st.Failed
		fs.Cancelled += st.Cancelled
		fs.CacheHits += st.CacheHits
		fs.Coalesced += st.Coalesced
		fs.ProblemsReused += st.ProblemsReused
		fs.StoreErrors += st.StoreErrors
		fs.StorePending += st.StorePending
		fs.Compactions += st.Compactions
		fs.StoreSegments += st.StoreSegments
		fs.Replicated += st.Replicated
		fs.ReplicationPending += st.ReplicationPending
		fs.ReplicationLag += st.ReplicationLag
		fs.DurableAcks += st.DurableAcks
		fs.DurableAcksDegraded += st.DurableAcksDegraded
		fs.QueueLen += st.QueueLen
		fs.Running += st.Running
	}
	if f.router != nil {
		var rs struct {
			Router struct {
				Routed    uint64 `json:"routed"`
				Failovers uint64 `json:"failovers"`
			} `json:"router"`
		}
		if err := getJSON(ctx, f.router.url+"/v1/stats", &rs); err != nil {
			return fs, err
		}
		fs.Routed, fs.Failovers = rs.Router.Routed, rs.Router.Failovers
	}
	return fs, nil
}

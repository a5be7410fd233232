package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geoMeanOfMedians is the geometric mean over calls of each call's
// median latency. The p50 of a mix of problems that differ in size by
// orders of magnitude lands between clusters and jumps from run to run;
// the geometric mean weights every call alike, whatever its size.
func geoMeanOfMedians(perCall [][]float64) float64 {
	if len(perCall) == 0 {
		return 0
	}
	s := 0.0
	for _, xs := range perCall {
		s += math.Log(median(xs))
	}
	return math.Exp(s / float64(len(perCall)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procStatus reads one "Key: value kB" field of /proc/<pid>/status, in kB.
func procStatus(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// peakRSSMB is a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatus(pid, "VmHWM")
	return kb / 1024, err
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuTime is a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] { // utime, stime
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// ioCounters are the /proc/<pid>/io fields the store metrics use.
type ioCounters struct {
	WriteBytes, WriteSyscalls float64
}

func readIO(pid int) (ioCounters, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return ioCounters{}, err
	}
	var c ioCounters
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return ioCounters{}, err
		}
		switch k {
		case "write_bytes":
			c.WriteBytes = n
		case "syscw":
			c.WriteSyscalls = n
		}
	}
	return c, nil
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's clocks and counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // runtime estimate of CPU seconds spent in GC
	usedCPU    float64 // runtime estimate of CPU seconds used (total - idle)
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(usageSamples)
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: usageSamples[0].Value.Uint64(),
		gcCycles:   usageSamples[1].Value.Uint64(),
		gcCPU:      usageSamples[2].Value.Float64(),
		usedCPU:    usageSamples[3].Value.Float64() - usageSamples[4].Value.Float64(),
	}
}

// delta is what one measured execution cost.
type delta struct {
	wallS, cpuS, allocMB float64
	gcCycles, gcCPUFrac  float64
}

func since(a usage) delta {
	b := readUsage()
	d := delta{
		wallS:    b.wall.Sub(a.wall).Seconds(),
		cpuS:     (b.cpu - a.cpu).Seconds(),
		allocMB:  float64(b.allocBytes-a.allocBytes) / (1 << 20),
		gcCycles: float64(b.gcCycles - a.gcCycles),
	}
	// The runtime's CPU classes are only comparable with each other.
	if used := b.usedCPU - a.usedCPU; used > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / used
	}
	return d
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostLine names the host every number was measured on.
func hostLine(workers int) string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d workers=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedFloats returns a sorted copy.
func sortedFloats(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (which must be non-empty).
func median(xs []float64) float64 {
	s := sortedFloats(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// spreads printed here match the ones a Python check computes. It needs at
// least two values.
func quartiles(xs []float64) [3]float64 {
	s := sortedFloats(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

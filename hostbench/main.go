// Command hostbench is the repository's host-time benchmark. Each run is
// one process that calls the experiment entry points hdbench uses
// (experiments.Fig6, Fig4a and FaultSweep) with tracing off, reports
// end-to-end metrics, and checks every result against a digest. With
// -trace 1 it instead reports per-layer metrics from a replay of the same
// workload in which every layer call is wrapped in a span.
//
//	hostbench -workload gpu-tasks -seed 20150615 -seconds 20 -trace 0
//	hostbench -steady 5 -seconds 20            # spread of every metric
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// See README.md for the workloads, metrics and measured layer shares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Set-up is measured at least setupRepeats times and for at least
// setupBudget; setup_s is the median.
const (
	setupRepeats = 7
	setupBudget  = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: gpu-tasks, cluster-sched or fault-sweep")
	seed := flag.Uint64("seed", defaultSeed, "input seed (0 means the experiments' default)")
	seconds := flag.Float64("seconds", 10, "measure for at least this many seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	steady := flag.Int("steady", 0, "run each workload this many times (seeds seed, seed+1, ...) in child processes and print the spread of every metric")
	spansDir := flag.String("spans-dir", ".bench_build", "where a traced run writes its spans (Chrome trace JSON)")
	flag.Parse()

	if *seed == 0 {
		*seed = defaultSeed
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	if *steady > 0 {
		if err := runSteady(*steady, *name, *seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hostbench: need -workload gpu-tasks|cluster-sched|fault-sweep and -trace 0|1\n")
		os.Exit(2)
	}
	fmt.Println(hostLine(nproc))
	b := &bench{w: w, seed: *seed, nproc: nproc, ref: pinnedDigests[w.name][*seed]}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep report
	var err error
	if *trace == 0 {
		rep, err = b.endToEnd(budget)
	} else {
		rep, err = b.layers(budget, *spansDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench runs one workload at one seed and keeps its correctness tally.
type bench struct {
	w     *benchWorkload
	seed  uint64
	nproc int
	// ref is the digest every execution must reproduce: the pinned one for
	// a pinned seed, otherwise the first execution's.
	ref       string
	ops       int
	attempted int
	failed    int
}

// check tallies one execution. An error return or a digest mismatch fails
// all of its operations; a row that breaks the workload's invariants fails
// one.
func (b *bench) check(label string, o outcome, err error) {
	if err != nil {
		n := max(b.ops, 1)
		b.attempted += n
		b.failed += n
		fmt.Fprintf(os.Stderr, "%s: error: %v\n", label, err)
		return
	}
	b.ops = o.ops
	b.attempted += o.ops
	if b.ref == "" {
		b.ref = o.digest
	}
	switch {
	case o.digest != b.ref:
		b.failed += o.ops
		fmt.Fprintf(os.Stderr, "%s: digest %s, want %s\n", label, o.digest, b.ref)
	case o.bad > 0:
		b.failed += o.bad
		fmt.Fprintf(os.Stderr, "%s: %d result rows fail their invariants\n", label, o.bad)
	}
}

// untraced runs the workload once through its experiment entry point.
func (b *bench) untraced(workers int) delta {
	runtime.GC()
	u := readUsage()
	o, err := b.w.run(b.w.config(b.seed, workers))
	d := since(u)
	b.check(fmt.Sprintf("%s untraced workers=%d", b.w.name, workers), o, err)
	return d
}

// warmUp runs the workload once, checked but not timed: the first
// execution in a process also grows the heap from nothing.
func (b *bench) warmUp() { b.untraced(b.nproc) }

// endToEnd measures set-up, warms up, then runs the workload at nproc
// workers until the budget is spent (at least three times) and reports
// medians.
func (b *bench) endToEnd(budget time.Duration) (report, error) {
	var setups []float64
	for begin := time.Now(); len(setups) < setupRepeats || time.Since(begin) < setupBudget; {
		runtime.GC()
		t0 := time.Now()
		if err := b.w.setup(b.seed); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.warmUp()
	var wall, cpu, alloc []float64
	start := time.Now()
	for len(wall) < 3 || time.Since(start) < budget {
		d := b.untraced(b.nproc)
		wall = append(wall, d.wallS)
		cpu = append(cpu, d.cpuS)
		alloc = append(alloc, d.allocMB)
	}
	fmt.Fprintf(os.Stderr, "%s: %d runs, wall %v\n", b.w.name, len(wall), wall)
	m := map[string]metric{}
	for k, v := range map[string]float64{
		"wall_s":      median(wall),
		"cpu_s":       median(cpu),
		"ops_per_s":   float64(b.ops) / median(wall),
		"setup_s":     median(setups),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": peakRSSMB(),
	} {
		m[k] = metric{v, endToEndUnits[k]}
	}
	return b.report(m), nil
}

// layers runs, until the budget is spent (at least once), the triple the
// per-layer metrics need: untraced at nproc workers, untraced at one
// worker, and the traced replay at one worker, where spans cannot overlap
// and the layers add up to wall-clock. Each metric is the median over the
// triples. The last replay's spans are written to spansDir.
func (b *bench) layers(budget time.Duration, spansDir string) (report, error) {
	b.warmUp()
	samples := map[string][]float64{}
	var last *Tracer
	start := time.Now()
	for len(samples) == 0 || time.Since(start) < budget {
		par := b.untraced(b.nproc)
		serial := b.untraced(1)

		runtime.GC()
		tr := NewTracer()
		root := tr.Begin("run")
		o, err := b.w.replay(b.w.config(b.seed, 1), tr)
		tr.End(root)
		b.check(b.w.name+" traced", o, err)
		last = tr

		for k, v := range layerMetrics(tr, par, serial, b.nproc) {
			samples[k] = append(samples[k], v)
		}
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return report{}, err
	}
	path := filepath.Join(spansDir, "hostbench-"+b.w.name+".trace.json")
	if err := last.WriteChromeTrace(path); err != nil {
		return report{}, err
	}
	m := map[string]metric{}
	for k, v := range samples {
		m[k] = metric{median(v), layerUnits[k]}
	}
	return b.report(m), nil
}

func (b *bench) report(m map[string]metric) report {
	return report{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// endToEndUnits lists every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s", "setup_s": "s", "alloc_mb": "MB", "peak_rss_mb": "MB",
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"compile.busy_s": "s", "compile.jobs": "count", "compile.allocs": "count",
	"minic.parse_s": "s", "ir.optimize_s": "s", "bytecode.compile_s": "s", "compiler.translate_s": "s",
	"streaming.busy_s": "s", "streaming.tasks": "count",
	"streaming.records_per_s": "1/s", "streaming.allocs_per_record": "count",
	"gpurt.busy_s": "s", "gpurt.tasks": "count", "gpurt.kv_pairs_per_s": "1/s", "gpurt.allocs_per_task": "count",
	"input.busy_s": "s", "cluster.busy_s": "s",
	"mr.map_busy_s": "s", "mr.map_calls": "count", "mr.useful_map_frac": "ratio",
	"mr.reduce_busy_s": "s", "mr.reduce_calls": "count",
	"seqfile.sum_busy_s": "s", "seqfile.sum_calls": "count",
	"mr.engine_self_s": "s", "mr.tasks": "count", "mr.engine_us_per_task": "us",
	"pool.cpu_util": "ratio", "pool.gain_x": "x",
	"gc.cycles": "count", "gc.cpu_frac": "ratio",
	"trace.wall_s": "s", "trace.overhead_x": "x", "unexplained_s": "s", "unexplained_frac": "ratio",
}

// layerMetrics derives the per-layer metrics of one triple: the traced
// replay's span breakdown and counters, and the two untraced runs.
func layerMetrics(tr *Tracer, par, serial delta, nproc int) map[string]float64 {
	bd := tr.Analyze()
	c := tr.counts
	self := func(name string) float64 { return bd.Self[name].Seconds() }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	wall := bd.Wall.Seconds()
	return map[string]float64{
		"compile.busy_s":       self("compile"),
		"compile.jobs":         c["compile.jobs"],
		"compile.allocs":       c["compile.allocs"],
		"minic.parse_s":        c["minic.parse_s"],
		"ir.optimize_s":        c["ir.optimize_s"],
		"bytecode.compile_s":   c["bytecode.compile_s"],
		"compiler.translate_s": c["compiler.translate_s"],

		"streaming.busy_s":            self("streaming"),
		"streaming.tasks":             c["streaming.tasks"],
		"streaming.records_per_s":     ratio(c["streaming.records"], self("streaming")),
		"streaming.allocs_per_record": ratio(c["streaming.allocs"], c["streaming.records"]),

		"gpurt.busy_s":          self("gpurt"),
		"gpurt.tasks":           c["gpurt.tasks"],
		"gpurt.kv_pairs_per_s":  ratio(c["gpurt.kv_pairs"], self("gpurt")),
		"gpurt.allocs_per_task": ratio(c["gpurt.allocs"], c["gpurt.tasks"]),

		"input.busy_s":   self("input"),
		"cluster.busy_s": self("cluster"),

		"mr.map_busy_s":      self("mr.map"),
		"mr.map_calls":       float64(bd.Calls["mr.map"]),
		"mr.useful_map_frac": ratio(c["mr.splits"], float64(bd.Calls["mr.map"])),
		"mr.reduce_busy_s":   self("mr.reduce"),
		"mr.reduce_calls":    float64(bd.Calls["mr.reduce"]),
		"seqfile.sum_busy_s": self("seqfile.sum"),
		"seqfile.sum_calls":  float64(bd.Calls["seqfile.sum"]),

		"mr.engine_self_s":      self("mr.RunJob"),
		"mr.tasks":              c["mr.tasks"],
		"mr.engine_us_per_task": 1e6 * ratio(self("mr.RunJob"), c["mr.tasks"]),

		"pool.cpu_util": ratio(par.cpuS, par.wallS*float64(nproc)),
		"pool.gain_x":   ratio(serial.wallS, par.wallS),
		"gc.cycles":     par.gcCycles,
		"gc.cpu_frac":   par.gcCPUFrac,

		"trace.wall_s":     wall,
		"trace.overhead_x": ratio(wall, serial.wallS),
		"unexplained_s":    bd.Unexplained.Seconds(),
		"unexplained_frac": ratio(bd.Unexplained.Seconds(), wall),
	}
}

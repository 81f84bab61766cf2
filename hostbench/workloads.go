package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/experiments"
	"repro/internal/mr"
	"repro/internal/workload"
)

// defaultSeed is the experiments' own default input seed.
const defaultSeed = 20150615

// outcome is what one execution of a workload produced.
type outcome struct {
	// digest hashes the result rows bit-exactly.
	digest string
	// ops counts the operations completed: sampled tasks, simulated jobs
	// or job runs, depending on the workload.
	ops int
	// bad counts result rows that fail the workload's own invariants.
	bad int
}

// benchWorkload is one end-to-end workload: an experiment entry point run
// untraced, its traced replay, and its set-up.
type benchWorkload struct {
	name string
	// config builds the experiment configuration for a seed and worker count.
	config func(seed uint64, workers int) experiments.Config
	// run calls the public experiment entry point, tracing off.
	run func(cfg experiments.Config) (outcome, error)
	// replay re-drives the same experiment through each layer's public
	// entry points, wrapping every layer call in a span.
	replay func(cfg experiments.Config, tr *Tracer) (outcome, error)
	// setup compiles every job program the workload uses and generates its
	// inputs: the one-off work a user pays before the first job.
	setup func(seed uint64) error
}

var workloads = []*benchWorkload{
	{
		// The GPU runtime does about 60% of the work and the CPU task path
		// about 30%; no cluster is simulated, so engine and pool changes
		// must not show here.
		name: "gpu-tasks",
		config: func(seed uint64, workers int) experiments.Config {
			return experiments.Config{Seed: seed, SplitBytes: 32 << 10, Variants: 3, TaskScale: 1, Workers: workers}
		},
		run: func(cfg experiments.Config) (outcome, error) {
			rows, err := experiments.Fig6(cfg)
			if err != nil {
				return outcome{}, err
			}
			return fig6Outcome(rows, cfg), nil
		},
		replay: replayFig6,
		setup: func(seed uint64) error {
			return setupSampling(seed, 32<<10, 3)
		},
	},
	{
		// The virtual-time engine and JobTracker/TaskTracker scheduling
		// over sampled task durations dominate; functional sampling is
		// small, so VM changes barely move it.
		name: "cluster-sched",
		config: func(seed uint64, workers int) experiments.Config {
			return experiments.Config{Seed: seed, SplitBytes: 8 << 10, Variants: 1, TaskScale: 8, Workers: workers}
		},
		run: func(cfg experiments.Config) (outcome, error) {
			rows, err := experiments.Fig4a(cfg)
			if err != nil {
				return outcome{}, err
			}
			return fig4Outcome(rows), nil
		},
		replay: replayFig4a,
		setup: func(seed uint64) error {
			return setupSampling(seed, 8<<10, 1)
		},
	},
	{
		// The only workload on the full functional job path (HDFS splits,
		// map, checksummed shuffle, verify-on-fetch, reduce) and on the
		// recovery path that re-executes maps and drops prefetch hints.
		name: "fault-sweep",
		config: func(seed uint64, workers int) experiments.Config {
			return experiments.Config{Seed: seed, Workers: workers}
		},
		run: func(cfg experiments.Config) (outcome, error) {
			rows, err := experiments.FaultSweep(cfg, nil)
			if err != nil {
				return outcome{}, err
			}
			return faultSweepOutcome(rows), nil
		},
		replay: replayFaultSweep,
		setup: func(seed uint64) error {
			if _, err := mr.CompileJob(faultSweepJob()); err != nil {
				return err
			}
			workload.TextCorpus(seed, faultSweepInputBytes)
			return nil
		},
	},
}

func workloadByName(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupSampling compiles the eight benchmarks' Cluster1 jobs and generates
// their sampled splits, as experiments.Fig6 and Fig4a do before any task.
func setupSampling(seed uint64, splitBytes, variants int) error {
	for _, b := range workload.All() {
		if _, err := mr.CompileJob(b.JobFor(1)); err != nil {
			return err
		}
		for v := 0; v < variants; v++ {
			b.Gen(seed+uint64(v)*977, splitBytes)
		}
	}
	return nil
}

// faultSweepInputBytes and faultSweepJob mirror experiments.FaultSweep's
// input size and its core.CompileJob call.
const faultSweepInputBytes = 48 * (4 << 10)

func faultSweepJob() mr.JobProgram {
	wc := workload.Wordcount().Job
	return mr.JobProgram{
		Name:        "wc-faults",
		MapSrc:      wc.MapSrc,
		CombineSrc:  wc.CombineSrc,
		ReduceSrc:   wc.ReduceSrc,
		NumReducers: 3,
	}
}

// digester hashes values bit-exactly: floats by their IEEE-754 bits.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) str(s string) { fmt.Fprintf(d.h, "%q;", s) }
func (d *digester) num(x float64) {
	fmt.Fprintf(d.h, "%x;", math.Float64bits(x))
}
func (d *digester) int(n int) { fmt.Fprintf(d.h, "%d;", n) }
func (d *digester) sum() string {
	return hex.EncodeToString(d.h.Sum(nil))[:16]
}

// fig6Outcome digests Figure 6's rows; every row stands for Variants CPU
// and Variants GPU sampled tasks. A row whose stage fractions do not add up
// to one fails.
func fig6Outcome(rows []experiments.Fig6Row, cfg experiments.Config) outcome {
	d := newDigester()
	out := outcome{ops: 2 * cfg.Variants * len(rows)}
	for _, r := range rows {
		d.str(r.Code)
		d.num(r.Total)
		total := 0.0
		for _, stage := range sortedKeys(r.Fractions) {
			d.str(stage)
			d.num(r.Fractions[stage])
			total += r.Fractions[stage]
		}
		if math.Abs(total-1) > 1e-9 || !(r.Total > 0) {
			out.bad++
		}
	}
	out.digest = d.sum()
	return out
}

// fig4Outcome digests Figure 4a's rows; every row stands for one CPU-only
// and one job per scheduler/GPU-count configuration. A row with a
// non-positive makespan or speedup fails.
func fig4Outcome(rows []experiments.Fig4Row) outcome {
	d := newDigester()
	var out outcome
	for _, r := range rows {
		out.ops += 1 + len(r.Speedups)
		d.str(r.Code)
		d.num(r.CPUOnly)
		d.num(r.TaskSpeedup)
		ok := r.CPUOnly > 0 && r.TaskSpeedup > 0
		for _, label := range sortedKeys(r.Speedups) {
			d.str(label)
			d.num(r.Speedups[label])
			ok = ok && r.Speedups[label] > 0
		}
		if !ok {
			out.bad++
		}
	}
	out.digest = d.sum()
	return out
}

// faultSweepOutcome digests the fault sweep's rows. Each row is one job
// run, except the skip-bad-records row, which also runs its pruned-input
// reference. A row whose output differs from the clean run, or whose plan
// failed, fails: every plan of the sweep is designed to complete.
func faultSweepOutcome(rows []experiments.FaultSweepRow) outcome {
	d := newDigester()
	out := outcome{ops: len(rows) + 1}
	for _, r := range rows {
		d.str(r.Label)
		d.num(r.Makespan)
		d.str(fmt.Sprint(r.OutputOK))
		d.str(r.Err)
		for _, n := range []int{r.FailedAttempts, r.LostAttempts, r.NodesLost, r.MapsReexecuted,
			r.GPUFallbacks, r.ReducesRestarted, r.Blacklists, r.FetchFailures,
			r.CorruptPartitions, r.MapOutputsLost, r.RecordsSkipped} {
			d.int(n)
		}
		if !r.OutputOK || r.Err != "" {
			out.bad++
		}
	}
	out.digest = d.sum()
	return out
}

// pinnedDigests holds each workload's digest for the experiments' default
// seed and for one held-out seed. They were recorded from the untraced run
// and reproduced by the traced replay at 1 and 2 workers.
var pinnedDigests = map[string]map[uint64]string{
	"gpu-tasks":     {defaultSeed: "0c1a4579353e0a40", heldOutSeed: "426d7b983cb37b50"},
	"cluster-sched": {defaultSeed: "d7d38b547f1e5dfd", heldOutSeed: "16460059d9641186"},
	"fault-sweep":   {defaultSeed: "d82e2278343db0a6", heldOutSeed: "e9d52e5983666ff1"},
}

// heldOutSeed is the second pinned seed.
const heldOutSeed = 1066

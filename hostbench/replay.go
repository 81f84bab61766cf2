package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/hdfs"
	"repro/internal/mr"
	"repro/internal/perf"
	"repro/internal/streaming"
	"repro/internal/workload"
)

// The traced replays below re-drive each experiment through the public
// entry point of every layer and wrap each call in a span. The little
// experiment logic that sits between those calls and is unexported
// (sampling, the Fig. 4 reduce calibration, the fault-sweep plan list,
// core.Run's heartbeat scaling) is copied here; the replay's digest must
// equal the untraced run's, which shows the copy is the same program.
//
// Top-level layer spans: compile (mr.CompileJob), input (workload
// generators), cluster (gpu.NewDevice, hdfs, mr.NewFunctionalExecutor),
// streaming (streaming.RunMapTask), gpurt (gpurt.RunTask) and mr.RunJob,
// whose children are the executor's mr.map, mr.reduce and seqfile.sum.

// replayer carries the tracer and the compile-phase profiler of one replay.
type replayer struct {
	tr *Tracer
	// compileProf times the sub-layers of mr.CompileJob: minic parsing,
	// GPU translation, ir optimization and bytecode lowering. It is handed
	// to the compiler only, never to a task.
	compileProf *perf.Profiler
}

func newReplayer(tr *Tracer) *replayer {
	return &replayer{tr: tr, compileProf: perf.New()}
}

// layer runs f inside a span and adds the heap objects it allocated to the
// layer's allocation counter.
func (r *replayer) layer(name string, f func()) {
	id := r.tr.Begin(name)
	a0 := heapObjects()
	f()
	r.tr.Add(name+".allocs", heapObjects()-a0)
	r.tr.End(id)
}

func (r *replayer) compile(job mr.JobProgram) (cj *mr.CompiledJob, err error) {
	r.layer("compile", func() { cj, err = mr.CompileJobProf(job, r.compileProf) })
	r.tr.Add("compile.jobs", 1)
	return cj, err
}

func (r *replayer) input(gen func(uint64, int) []byte, seed uint64, n int) (in []byte) {
	r.layer("input", func() { in = gen(seed, n) })
	return in
}

func (r *replayer) cpuTask(cj *mr.CompiledJob, input []byte, cfg streaming.MapTaskConfig) (res *streaming.MapTaskResult, err error) {
	r.layer("streaming", func() { res, err = streaming.RunMapTask(cj.MapF, cj.CombineF, input, cfg) })
	r.tr.Add("streaming.tasks", 1)
	r.tr.Add("streaming.records", float64(bytes.Count(input, []byte{'\n'})))
	return res, err
}

func (r *replayer) gpuTask(dev *gpu.Device, cj *mr.CompiledJob, input []byte, cfg gpurt.TaskConfig) (res *gpurt.TaskResult, err error) {
	r.layer("gpurt", func() { res, err = gpurt.RunTask(dev, cj.MapC, cj.CombineC, input, cfg) })
	r.tr.Add("gpurt.tasks", 1)
	if err == nil {
		r.tr.Add("gpurt.kv_pairs", float64(res.KVPairs))
	}
	return res, err
}

func (r *replayer) runJob(cfg mr.ClusterConfig, exec mr.Executor) (stats *mr.JobStats, err error) {
	id := r.tr.Begin("mr.RunJob")
	stats, err = mr.RunJob(cfg, wrapExecutor(exec, r.tr))
	r.tr.End(id)
	r.tr.Add("mr.splits", float64(exec.NumSplits()))
	r.tr.Add("mr.tasks", float64(exec.NumSplits()+exec.NumReducers()))
	return stats, err
}

// sample replays experiments' per-benchmark split sampling: Variants
// splits, each run once as a CPU task and once as a GPU task.
func (r *replayer) sample(b *workload.Benchmark, setup cluster.Setup, cfg experiments.Config) (*experiments.TaskSample, error) {
	job := b.JobFor(1)
	cj, err := r.compile(job)
	if err != nil {
		return nil, err
	}
	var dev *gpu.Device
	r.layer("cluster", func() { dev, err = gpu.NewDevice(setup.Device) })
	if err != nil {
		return nil, err
	}
	sample := &experiments.TaskSample{Code: b.Code}
	for v := 0; v < cfg.Variants; v++ {
		input := r.input(b.Gen, cfg.Seed+uint64(v)*977, cfg.SplitBytes)
		readTime := float64(len(input))/(setup.HDFS.DiskReadGBs*1e9) + setup.HDFS.SeekMS/1000
		cpuRes, err := r.cpuTask(cj, input, streaming.MapTaskConfig{
			Schema:        cj.Schema,
			NumReducers:   job.NumReducers,
			CPU:           setup.CPU,
			InputReadTime: readTime,
			DiskWriteGBs:  setup.DiskWriteGBs,
			HDFSWriteGBs:  setup.HDFSWriteGBs,
		})
		if err != nil {
			return nil, fmt.Errorf("%s cpu sample: %w", b.Code, err)
		}
		gpuRes, err := r.gpuTask(dev, cj, input, gpurt.TaskConfig{
			NumReducers:   job.NumReducers,
			Opts:          gpurt.AllOptimizations(),
			InputReadTime: readTime,
			DiskWriteGBs:  setup.DiskWriteGBs,
			HDFSWriteGBs:  setup.HDFSWriteGBs,
		})
		if err != nil {
			return nil, fmt.Errorf("%s gpu sample: %w", b.Code, err)
		}
		sample.CPUDur = append(sample.CPUDur, cpuRes.Times.Total())
		sample.GPUDur = append(sample.GPUDur, gpuRes.Total())
		sample.CPUTimes = append(sample.CPUTimes, cpuRes.Times)
		sample.GPUTimes = append(sample.GPUTimes, gpuRes.Times)
		sample.OutputBytes += gpuRes.OutputBytes / int64(cfg.Variants)
		sample.Records += gpuRes.Records / cfg.Variants
		sample.KVPairs += gpuRes.KVPairs / cfg.Variants
	}
	return sample, nil
}

// replayFig6 is experiments.Fig6, traced.
func replayFig6(cfg experiments.Config, tr *Tracer) (outcome, error) {
	r := newReplayer(tr)
	setup := cluster.Cluster1()
	var rows []experiments.Fig6Row
	for _, b := range workload.All() {
		sample, err := r.sample(b, setup, cfg)
		if err != nil {
			return outcome{}, err
		}
		row := experiments.Fig6Row{Code: b.Code, Fractions: map[string]float64{}}
		for _, st := range sample.GPUTimes {
			for _, stage := range st.Stages() {
				row.Fractions[stage.Name] += stage.Time
			}
			row.Total += st.Total()
		}
		for name := range row.Fractions {
			row.Fractions[name] /= row.Total
		}
		row.Total /= float64(len(sample.GPUTimes))
		rows = append(rows, row)
	}
	r.finish()
	return fig6Outcome(rows, cfg), nil
}

// replayFig4a is experiments.Fig4a, traced: sampling, the reduce-phase
// calibration and the three job runs per benchmark.
func replayFig4a(cfg experiments.Config, tr *Tracer) (outcome, error) {
	r := newReplayer(tr)
	setup := cluster.Cluster1()
	var rows []experiments.Fig4Row
	for _, b := range workload.All() {
		sample, err := r.sample(b, setup, cfg)
		if err != nil {
			return outcome{}, err
		}
		row, err := r.fig4Bench(b, setup, sample, cfg)
		if err != nil {
			return outcome{}, err
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].Speedups["1GPU+tail"] < rows[j].Speedups["1GPU+tail"]
	})
	r.finish()
	return fig4Outcome(rows), nil
}

func (r *replayer) fig4Bench(b *workload.Benchmark, setup cluster.Setup, sample *experiments.TaskSample,
	cfg experiments.Config) (experiments.Fig4Row, error) {

	mapTasks := int(float64(b.MapTasksC1) * cfg.TaskScale)
	if mapTasks < 8 {
		mapTasks = 8
	}
	reducers := b.ReduceTasksC1
	pct := float64(b.PctMapCombine) / 100
	mapPhaseCPU := sample.MeanCPU() * float64(mapTasks) / float64(setup.Node.MapSlots*setup.Slaves)
	reduceCompute := 0.0
	if pct < 1 && reducers > 0 {
		reduceCompute = mapPhaseCPU * (1 - pct) / pct
	}
	heartbeat := sample.MeanGPU() / 2
	if heartbeat < 1e-5 {
		heartbeat = 1e-5
	}
	run := func(node mr.NodeConfig, sched mr.SchedulerKind) (float64, error) {
		stats, err := r.runJob(mr.ClusterConfig{
			Name:   fmt.Sprintf("%s-%dgpu-%s", b.Code, node.GPUs, sched),
			Slaves: setup.Slaves, Node: node, Scheduler: sched,
			HeartbeatSec: heartbeat,
		}, &mr.SampledExecutor{
			Splits:            mapTasks,
			Reducers:          reducers,
			Slaves:            setup.Slaves,
			CPUDur:            sample.CPUDur,
			GPUDur:            sample.GPUDur,
			RemoteReadPenalty: float64(cfg.SplitBytes) / (setup.HDFS.NetworkGBs * 1e9),
			MapOutputBytes:    sample.OutputBytes,
			ReduceCompute:     reduceCompute,
			ShuffleGBs:        setup.HDFS.NetworkGBs,
			Jitter:            0.35,
		})
		if err != nil {
			return 0, err
		}
		return stats.Makespan, nil
	}
	base, err := run(setup.CPUOnlyNode(), mr.CPUOnly)
	if err != nil {
		return experiments.Fig4Row{}, err
	}
	row := experiments.Fig4Row{Code: b.Code, CPUOnly: base, Speedups: map[string]float64{}, TaskSpeedup: sample.Speedup()}
	node := setup.Node
	node.GPUs = 1
	for _, sched := range []mr.SchedulerKind{mr.GPUFirst, mr.TailSched} {
		m, err := run(node, sched)
		if err != nil {
			return experiments.Fig4Row{}, err
		}
		label := "1GPU+gpufirst"
		if sched == mr.TailSched {
			label = "1GPU+tail"
		}
		row.Speedups[label] = base / m
	}
	return row, nil
}

// replayFaultSweep is experiments.FaultSweep(cfg, nil), traced: the clean
// run, the plan rows derived from its stats, and the skip-bad-records pair.
func replayFaultSweep(cfg experiments.Config, tr *Tracer) (outcome, error) {
	r := newReplayer(tr)
	setup := cluster.Cluster1().WithSlaves(4)
	setup.HDFS.BlockSize = 4 << 10
	job, err := r.compile(faultSweepJob())
	if err != nil {
		return outcome{}, err
	}
	input := r.input(workload.TextCorpus, cfg.Seed, faultSweepInputBytes)
	run := func(in []byte, plan *faults.Plan, skip bool) (*mr.JobStats, error) {
		return r.coreRun(job, in, setup, cfg.Seed, plan, skip)
	}
	clean, err := run(input, nil, false)
	if err != nil {
		return outcome{}, fmt.Errorf("clean fault-sweep run: %w", err)
	}
	cleanOut := textOutput(clean)
	mapEnd := clean.MapPhaseEnd
	span := clean.Makespan
	rows := []experiments.FaultSweepRow{{Label: "clean", Makespan: span, OutputOK: true}}
	for _, p := range faultSweepPlans(mapEnd, span) {
		stats, err := run(input, p.plan, false)
		if err != nil {
			rows = append(rows, experiments.FaultSweepRow{Label: p.label, Err: err.Error()})
			continue
		}
		rows = append(rows, sweepRow(p.label, stats, textOutput(stats) == cleanOut))
	}
	skipPlan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.InputCorrupt, Task: 0, Record: 1},
		{Kind: faults.InputCorrupt, Task: 0, Record: 4},
	}}
	var pruned []byte
	r.layer("input", func() { pruned = dropRecords(input, 1, 4) })
	prunedRef, err := run(pruned, nil, false)
	if err != nil {
		return outcome{}, fmt.Errorf("pruned-input reference run: %w", err)
	}
	if sk, err := run(input, skipPlan, true); err != nil {
		rows = append(rows, experiments.FaultSweepRow{Label: "skip-bad-records", Err: err.Error()})
	} else {
		rows = append(rows, sweepRow("skip-bad-records", sk, textOutput(sk) == textOutput(prunedRef)))
	}
	r.finish()
	return faultSweepOutcome(rows), nil
}

// coreRun is core.Run with the scheduler left at its zero value (CPU-only),
// as experiments.FaultSweep calls it, and the executor wrapped.
func (r *replayer) coreRun(job *mr.CompiledJob, input []byte, setup cluster.Setup, seed uint64,
	plan *faults.Plan, skip bool) (*mr.JobStats, error) {

	setup.Node.GPUs = 0
	var exec *mr.FunctionalExecutor
	var err error
	r.layer("cluster", func() {
		var fs *hdfs.FS
		var dev *gpu.Device
		const inputPath = "/job/input"
		if fs, err = hdfs.New(setup.HDFS, seed+1); err != nil {
			return
		}
		if err = fs.Write(inputPath, input); err != nil {
			return
		}
		if dev, err = gpu.NewDevice(setup.Device); err != nil {
			return
		}
		exec, err = mr.NewFunctionalExecutor(job, fs, inputPath, mr.HardwareModel{
			CPU:          setup.CPU,
			Device:       dev,
			Opts:         gpurt.AllOptimizations(),
			DiskWriteGBs: setup.DiskWriteGBs,
			HDFSWriteGBs: setup.HDFSWriteGBs,
		})
	})
	if err != nil {
		return nil, err
	}
	// core.Run's heartbeat: the 3 s interval scaled with the block size.
	scale := float64(setup.HDFS.BlockSize) / float64(256<<20)
	hb := setup.HeartbeatSec * scale * 50
	if hb < 1e-5 {
		hb = 1e-5
	}
	return r.runJob(mr.ClusterConfig{
		Name:           job.Program.Name,
		Slaves:         setup.Slaves,
		Node:           setup.Node,
		Scheduler:      mr.CPUOnly,
		HeartbeatSec:   hb,
		Faults:         plan,
		Seed:           seed + 2,
		SkipBadRecords: skip,
	}, exec)
}

// finish records the compile sub-layer times the profiler collected.
func (r *replayer) finish() {
	snap := r.compileProf.Snapshot()
	for phase, name := range map[string]string{
		perf.PhaseHostCompile:     "minic.parse_s",
		perf.PhaseGPUTranslate:    "compiler.translate_s",
		perf.PhaseOptimize:        "ir.optimize_s",
		perf.PhaseBytecodeCompile: "bytecode.compile_s",
	} {
		b := snap.Buckets[perf.Key{Cat: perf.CatPhase, Name: phase}]
		r.tr.Add(name, float64(b.Nanos)/1e9)
	}
}

func textOutput(s *mr.JobStats) string {
	var b strings.Builder
	for _, p := range s.Output {
		b.WriteString(p.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

type sweepPlan struct {
	label string
	plan  *faults.Plan
}

// faultSweepPlans is experiments.FaultSweep's plan list, with fault
// instants derived from the clean run's map-phase end and makespan.
func faultSweepPlans(mapEnd, span float64) []sweepPlan {
	return []sweepPlan{
		{"gpu-rate-0.3", &faults.Plan{GPUFailureRate: 0.3}},
		{"cpu+gpu-rate", &faults.Plan{CPUFailureRate: 0.05, GPUFailureRate: 0.2}},
		{"crash+restart", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.NodeCrash, Node: 1, At: 0.8 * mapEnd, RestartAfter: 0.2 * span},
		}}},
		{"crash-after-maps", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.NodeCrash, Node: 2, At: 0.9 * mapEnd},
		}}},
		{"gpu-retire", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.GPURetire, Node: 0, At: 0.2 * mapEnd},
		}}},
		{"hb-loss", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.HeartbeatLoss, Node: 3, At: 0.3 * mapEnd, Duration: 0.5 * span},
		}}},
		{"straggler-4x", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Slowdown, Node: 1, At: 0, Factor: 4},
		}}},
		{"corrupt-1-part", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MapOutputCorrupt, Task: 0, Attempt: 0, Part: 0},
		}}},
		{"corrupt-output", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MapOutputCorrupt, Task: 2, Attempt: 0, Part: -1},
		}}},
		{"corrupt-2-tasks", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MapOutputCorrupt, Task: 1, Attempt: 0, Part: 1},
			{Kind: faults.MapOutputCorrupt, Task: 3, Attempt: 0, Part: 2},
		}}},
		{"corrupt-rate-0.05", &faults.Plan{CorruptRate: 0.05, Seed: 5}},
		{"fetchfail-2x", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.FetchFail, Task: 1, Part: 1, Times: 2},
		}}},
		{"fetchfail-lost", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.FetchFail, Task: 0, Part: 0, Times: 9},
		}}},
		{"fetch-rate-0.05", &faults.Plan{FetchFailRate: 0.05, Seed: 6}},
		{"corrupt+crash", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MapOutputCorrupt, Task: 0, Attempt: 0, Part: -1},
			{Kind: faults.NodeCrash, Node: 1, At: mapEnd + 0.5*(span-mapEnd), RestartAfter: 0.3 * span},
		}}},
	}
}

// sweepRow copies a completed run's recovery and integrity counters.
func sweepRow(label string, s *mr.JobStats, outputOK bool) experiments.FaultSweepRow {
	return experiments.FaultSweepRow{
		Label:             label,
		Makespan:          s.Makespan,
		OutputOK:          outputOK,
		FailedAttempts:    s.FailedAttempts,
		LostAttempts:      s.LostAttempts,
		NodesLost:         s.NodesLost,
		MapsReexecuted:    s.MapsReexecuted,
		GPUFallbacks:      s.GPUFallbacks,
		ReducesRestarted:  s.ReducesRestarted,
		Blacklists:        s.NodeBlacklists,
		FetchFailures:     s.FetchFailures,
		CorruptPartitions: s.CorruptPartitions,
		MapOutputsLost:    s.MapOutputsLost,
		RecordsSkipped:    s.RecordsSkipped,
	}
}

// dropRecords removes the newline-delimited records at the given indices,
// as experiments.FaultSweep prunes the skip-bad-records reference input.
func dropRecords(input []byte, drop ...int) []byte {
	dropSet := map[int]bool{}
	for _, d := range drop {
		dropSet[d] = true
	}
	var out []byte
	rec := 0
	for start := 0; start < len(input); rec++ {
		end := start
		for end < len(input) && input[end] != '\n' {
			end++
		}
		if end < len(input) {
			end++
		}
		if !dropSet[rec] {
			out = append(out, input[start:end]...)
		}
		start = end
	}
	return out
}

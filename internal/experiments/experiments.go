// Package experiments regenerates every table and figure of the paper's
// evaluation (§7): Table 2 (benchmarks), Table 3 (clusters), Figure 3
// (tail scheduling intuition), Figures 4a/4b (end-to-end cluster
// speedups), Figure 5 (single-task GPU speedups, baseline vs optimized),
// Figure 6 (GPU task breakdown), and Figures 7a–7e (individual
// optimization effects).
//
// Cluster-scale experiments keep the paper's Table-2 task counts but
// sample per-task durations from a few functionally executed splits
// (scaled block size), then replay them through the virtual-time Hadoop
// engine — see EXPERIMENTS.md for the scaling discussion.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/streaming"
	"repro/internal/workload"
)

// Config controls experiment scale. The zero value is usable: defaults
// reproduce the shapes at modest runtime.
type Config struct {
	// SplitBytes is the scaled fileSplit size sampled functionally.
	SplitBytes int
	// Variants is the number of distinct splits sampled per benchmark and
	// device.
	Variants int
	// Seed drives input generation.
	Seed uint64
	// TaskScale multiplies the paper's Table-2 map task counts (1.0 =
	// exact counts; tests use smaller values for speed).
	TaskScale float64
	// Obs, when non-nil, records every experiment job's spans and metrics.
	Obs *obs.Recorder
	// Prof, when non-nil, receives wall-clock phase and interpreter
	// hot-path buckets from every functionally sampled task.
	Prof *perf.Profiler
	// Workers bounds host-side parallelism across a sweep's independent
	// jobs (and inside each job's task work). 0 or 1 runs everything
	// serially; every value produces byte-identical tables, traces, and
	// metrics — only wall-clock time changes.
	Workers int
}

func (c *Config) fillDefaults() {
	if c.SplitBytes == 0 {
		c.SplitBytes = 32 << 10
	}
	if c.Variants == 0 {
		c.Variants = 3
	}
	if c.Seed == 0 {
		c.Seed = 20150615 // HPDC'15
	}
	if c.TaskScale == 0 {
		c.TaskScale = 1.0
	}
}

// TaskSample holds functionally measured per-variant task behaviour for
// one benchmark on one cluster's hardware.
type TaskSample struct {
	Code        string
	CPUDur      []float64
	GPUDur      []float64
	GPUTimes    []gpurt.StageTimes
	CPUTimes    []streaming.MapTaskTimes
	OutputBytes int64
	Records     int
	KVPairs     int
}

// MeanCPU returns the mean sampled CPU task duration.
func (s *TaskSample) MeanCPU() float64 { return mean(s.CPUDur) }

// MeanGPU returns the mean sampled GPU task duration.
func (s *TaskSample) MeanGPU() float64 { return mean(s.GPUDur) }

// Speedup is the mean single-task GPU speedup over one CPU core.
func (s *TaskSample) Speedup() float64 {
	g := s.MeanGPU()
	if g == 0 {
		return 0
	}
	return s.MeanCPU() / g
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// GeoMean returns the geometric mean of positive values.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// sampleBenchmark functionally executes Variants splits of a benchmark on
// both devices of the given cluster setup and returns the measurements.
// clusterIdx selects the Table-2 parameter column (1 or 2).
func sampleBenchmark(b *workload.Benchmark, setup cluster.Setup, clusterIdx int,
	opts gpurt.Options, cfg Config) (*TaskSample, error) {

	cfg.fillDefaults()
	cj, err := mr.CompileJobProf(b.JobFor(clusterIdx), cfg.Prof)
	if err != nil {
		return nil, err
	}
	dev, err := gpu.NewDevice(setup.Device)
	if err != nil {
		return nil, err
	}
	sample := &TaskSample{Code: b.Code}
	for v := 0; v < cfg.Variants; v++ {
		input := b.Gen(cfg.Seed+uint64(v)*977, cfg.SplitBytes)
		// Data-local read of the scaled split.
		readTime := float64(len(input))/(setup.HDFS.DiskReadGBs*1e9) + setup.HDFS.SeekMS/1000

		cpuRes, err := streaming.RunMapTask(cj.MapF, cj.CombineF, input, streaming.MapTaskConfig{
			Schema:        cj.Schema,
			NumReducers:   cj.Program.NumReducers,
			CPU:           setup.CPU,
			InputReadTime: readTime,
			DiskWriteGBs:  setup.DiskWriteGBs,
			HDFSWriteGBs:  setup.HDFSWriteGBs,
			Prof:          cfg.Prof,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s cpu sample: %w", b.Code, err)
		}
		gpuOpts := opts
		if gpuOpts.Prof == nil {
			gpuOpts.Prof = cfg.Prof
		}
		gpuRes, err := gpurt.RunTask(dev, cj.MapC, cj.CombineC, input, gpurt.TaskConfig{
			NumReducers:   cj.Program.NumReducers,
			Opts:          gpuOpts,
			InputReadTime: readTime,
			DiskWriteGBs:  setup.DiskWriteGBs,
			HDFSWriteGBs:  setup.HDFSWriteGBs,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s gpu sample: %w", b.Code, err)
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

// pool returns the sweep's worker pool (nil for a serial sweep) and a
// release function that closes it.
func (c Config) pool() (*sim.Pool, func()) {
	if c.Workers > 1 {
		p := sim.NewPool(c.Workers)
		return p, p.Close
	}
	return nil, func() {}
}

// parallelRuns executes n independent runs on the pool — inline, in index
// order, when the pool is serial — handing each run a private fork of the
// base recorder and merging the forks back in index order afterwards.
// Both paths fork and merge, so the recorded bytes are identical for every
// worker count by construction. Results land in index order; the first
// error (by index) wins.
func parallelRuns[T any](pool *sim.Pool, base *obs.Recorder, n int,
	run func(i int, rec *obs.Recorder) (T, error)) ([]T, error) {

	type outcome struct {
		val T
		err error
	}
	recs := make([]*obs.Recorder, n)
	tasks := make([]*sim.Task, n)
	for i := 0; i < n; i++ {
		i := i
		recs[i] = base.Fork()
		tasks[i] = pool.Submit(func() any {
			v, err := run(i, recs[i])
			return outcome{v, err}
		})
	}
	out := make([]T, n)
	var firstErr error
	for i := 0; i < n; i++ {
		o := tasks[i].Wait().(outcome)
		base.Merge(recs[i])
		out[i] = o.val
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// scaledTasks applies Config.TaskScale to a Table-2 task count.
func scaledTasks(n int, cfg Config) int {
	s := int(float64(n) * cfg.TaskScale)
	if s < 8 {
		s = 8
	}
	return s
}

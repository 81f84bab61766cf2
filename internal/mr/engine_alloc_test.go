package mr

import (
	"runtime"
	"testing"
)

// sampledAllocJob is a timing-only job shaped like the cluster-scale
// Figure-4 runs: jittered sampled durations, remote-read penalties, and a
// tail-scheduled GPU node. ReduceSlowstart 1 launches the reducers once
// the maps are done, so a reducer's cost does not include maps-done gate
// polls, whose number grows with the job's length.
func sampledAllocJob(splits, reducers int) (ClusterConfig, *SampledExecutor) {
	cfg := ClusterConfig{
		Name: "alloc", Slaves: 4,
		Node:            NodeConfig{MapSlots: 4, ReduceSlots: 2, GPUs: 1},
		Scheduler:       TailSched,
		HeartbeatSec:    0.1,
		ReduceSlowstart: 1,
		Seed:            7,
	}
	exec := &SampledExecutor{
		Splits: splits, Reducers: reducers, Slaves: 4,
		CPUDur: []float64{1.0, 1.3}, GPUDur: []float64{0.2, 0.25},
		RemoteReadPenalty: 0.05, MapOutputBytes: 1 << 16,
		ReduceCompute: 0.5, ShuffleGBs: 1, Jitter: 0.35,
	}
	return cfg, exec
}

// runJobAllocs returns the heap bytes and objects one RunJob allocates.
func runJobAllocs(t testing.TB, splits, reducers int) (bytes, objects uint64) {
	cfg, exec := sampledAllocJob(splits, reducers)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := RunJob(cfg, exec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestRunJobSampledAllocBytes pins the engine's allocation per map task,
// and checks that a reducer's bookkeeping does not grow with the map
// count: doubling the reducers must add about the same bytes at 4096 and
// at 8192 maps. The per-task limits sit at about twice the values
// measured when the engine moved to dense per-split state (578 B and 3.5
// objects per task).
func TestRunJobSampledAllocBytes(t *testing.T) {
	const splits = 4096
	bytes, objects := runJobAllocs(t, splits, 4)
	if perTask := float64(bytes) / splits; perTask > 1200 {
		t.Errorf("RunJob allocates %.0f B per map task, want <= 1200", perTask)
	}
	if perTask := float64(objects) / splits; perTask > 7 {
		t.Errorf("RunJob allocates %.2f objects per map task, want <= 7", perTask)
	}
	added := func(maps int) int64 {
		b4, _ := runJobAllocs(t, maps, 4)
		b8, _ := runJobAllocs(t, maps, 8)
		return int64(b8) - int64(b4)
	}
	// Reducer count shifts the makespan and so the heartbeat count a
	// little; an O(maps) cost per reducer adds hundreds of KiB here.
	small, large := added(splits), added(2*splits)
	if large-small > 16<<10 {
		t.Errorf("4 more reducers add %d B at %d maps but %d B at %d maps; want a per-reducer cost independent of the map count",
			small, splits, large, 2*splits)
	}
}

// BenchmarkRunJobSampled times RunJob's bookkeeping over a timing-only
// executor, where the engine is all the work there is.
func BenchmarkRunJobSampled(b *testing.B) {
	const splits = 4096
	b.ReportAllocs()
	var bytes uint64
	for i := 0; i < b.N; i++ {
		cfg, exec := sampledAllocJob(splits, 4)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunJob(cfg, exec); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	tasks := float64(b.N) * splits
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tasks, "ns/task")
	b.ReportMetric(float64(bytes)/tasks, "B/task")
}

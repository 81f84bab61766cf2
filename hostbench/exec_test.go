package main

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/gpurt"
	"repro/internal/hdfs"
	"repro/internal/kv"
	"repro/internal/mr"
	"repro/internal/sim"
	"repro/internal/workload"
)

// spyExecutor counts the engine-extension calls that reach a
// FunctionalExecutor through the wrapper.
type spyExecutor struct {
	*mr.FunctionalExecutor
	calls map[string]int
}

func (s *spyExecutor) ConfigureIntegrity(c mr.IntegrityConfig) {
	s.calls["ConfigureIntegrity"]++
	s.FunctionalExecutor.ConfigureIntegrity(c)
}
func (s *spyExecutor) PartitionSum(pairs []kv.Pair) uint32 {
	s.calls["PartitionSum"]++
	return s.FunctionalExecutor.PartitionSum(pairs)
}
func (s *spyExecutor) SetWorkerPool(p *sim.Pool) {
	s.calls["SetWorkerPool"]++
	s.FunctionalExecutor.SetWorkerPool(p)
}
func (s *spyExecutor) PrefetchMaps(gpu bool) {
	s.calls["PrefetchMaps"]++
	s.FunctionalExecutor.PrefetchMaps(gpu)
}
func (s *spyExecutor) PrefetchReduce(p int, inputs [][]kv.Pair) {
	s.calls["PrefetchReduce"]++
	s.FunctionalExecutor.PrefetchReduce(p, inputs)
}

// integrityJob runs wordcount on a 4-slave GPU cluster under a plan that
// corrupts map outputs and poisons two input records (skip-bad-records
// on), handing RunJob whatever wrap makes of a fresh FunctionalExecutor.
func integrityJob(t *testing.T, workers int, wrap func(*mr.FunctionalExecutor) mr.Executor) *mr.JobStats {
	t.Helper()
	job, err := mr.CompileJob(faultSweepJob())
	if err != nil {
		t.Fatal(err)
	}
	setup := cluster.Cluster1().WithSlaves(4)
	setup.HDFS.BlockSize = 4 << 10
	fs, err := hdfs.New(setup.HDFS, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/in", workload.TextCorpus(7, 24*(4<<10))); err != nil {
		t.Fatal(err)
	}
	dev, err := gpu.NewDevice(setup.Device)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := mr.NewFunctionalExecutor(job, fs, "/in", mr.HardwareModel{
		CPU: setup.CPU, Device: dev, Opts: gpurt.AllOptimizations(),
		DiskWriteGBs: setup.DiskWriteGBs, HDFSWriteGBs: setup.HDFSWriteGBs,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := mr.RunJob(mr.ClusterConfig{
		Name: "wc-integrity", Slaves: setup.Slaves, Node: setup.Node, Scheduler: mr.TailSched,
		HeartbeatSec: 1e-4, Seed: 3, Workers: workers, SkipBadRecords: true,
		Faults: &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MapOutputCorrupt, Task: 0, Attempt: 0, Part: -1},
			{Kind: faults.MapOutputCorrupt, Task: 5, Attempt: 0, Part: 1},
			{Kind: faults.InputCorrupt, Task: 1, Record: 2},
			{Kind: faults.InputCorrupt, Task: 3, Record: 0},
		}},
	}, wrap(exec))
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestWrapperForwardsEngineExtensions checks that timing the executor
// changes nothing the engine does: at 1 and 2 workers, under corruption
// and input poisoning, the wrapped run's JobStats and output are identical
// to the unwrapped run's, and every optional method reaches the executor.
func TestWrapperForwardsEngineExtensions(t *testing.T) {
	for _, workers := range []int{1, 2} {
		plain := integrityJob(t, workers, func(x *mr.FunctionalExecutor) mr.Executor { return x })
		spy := &spyExecutor{calls: map[string]int{}}
		tr := NewTracer()
		root := tr.Begin("run")
		wrapped := integrityJob(t, workers, func(x *mr.FunctionalExecutor) mr.Executor {
			spy.FunctionalExecutor = x
			return wrapExecutor(spy, tr)
		})
		tr.End(root)

		if plain.CorruptPartitions == 0 || plain.RecordsSkipped == 0 {
			t.Fatalf("workers=%d: plan had no effect: corrupt=%d skipped=%d",
				workers, plain.CorruptPartitions, plain.RecordsSkipped)
		}
		if !reflect.DeepEqual(plain, wrapped) {
			t.Fatalf("workers=%d: wrapped run differs:\nplain   %+v\nwrapped %+v", workers, plain, wrapped)
		}
		want := []string{"ConfigureIntegrity", "PartitionSum"}
		if workers > 1 {
			want = append(want, "SetWorkerPool", "PrefetchMaps", "PrefetchReduce")
		}
		for _, m := range want {
			if spy.calls[m] == 0 {
				t.Errorf("workers=%d: %s never reached the executor", workers, m)
			}
		}
		bd := tr.Analyze()
		if bd.Calls["mr.map"] == 0 || bd.Calls["mr.reduce"] == 0 || bd.Calls["seqfile.sum"] != spy.calls["PartitionSum"] {
			t.Errorf("workers=%d: spans %v, PartitionSum calls %d", workers, bd.Calls, spy.calls["PartitionSum"])
		}
	}
}

// TestWrapperPresentsSameExtensions checks the wrapper adds no extension
// to an executor that has none, so a timing-only replay keeps its paths.
func TestWrapperPresentsSameExtensions(t *testing.T) {
	var sampled mr.Executor = &mr.SampledExecutor{}
	if _, ok := wrapExecutor(sampled, NewTracer()).(interface{ PartitionSum([]kv.Pair) uint32 }); ok {
		t.Fatal("wrapped SampledExecutor gained PartitionSum")
	}
	var functional mr.Executor = &mr.FunctionalExecutor{}
	if _, ok := wrapExecutor(functional, NewTracer()).(engineExtensions); !ok {
		t.Fatal("wrapped FunctionalExecutor lost an engine extension")
	}
}

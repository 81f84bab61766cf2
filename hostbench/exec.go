package main

import (
	"repro/internal/kv"
	"repro/internal/mr"
	"repro/internal/sim"
)

// timedExecutor wraps the mr.Executor handed to mr.RunJob and records a
// span around each task call, so the engine's own time is the RunJob span
// minus these.
type timedExecutor struct {
	inner mr.Executor
	tr    *Tracer
}

func (x *timedExecutor) NumSplits() int            { return x.inner.NumSplits() }
func (x *timedExecutor) NumReducers() int          { return x.inner.NumReducers() }
func (x *timedExecutor) Locations(split int) []int { return x.inner.Locations(split) }

func (x *timedExecutor) MapTask(split int, onGPU bool, node int) (mr.MapAttempt, error) {
	id := x.tr.Begin("mr.map")
	defer x.tr.End(id)
	return x.inner.MapTask(split, onGPU, node)
}

func (x *timedExecutor) ReduceTask(p int, inputs [][]kv.Pair) (mr.ReduceWork, error) {
	id := x.tr.Begin("mr.reduce")
	defer x.tr.End(id)
	return x.inner.ReduceTask(p, inputs)
}

// engineExtensions lists the optional methods mr.RunJob discovers on its
// executor by type assertion: input poisoning and skip-bad-records,
// verify-on-fetch checksums, and prefetching on the worker pool. A wrapper
// that dropped one would silently switch that mechanism off.
type engineExtensions interface {
	ConfigureIntegrity(mr.IntegrityConfig)
	PartitionSum(pairs []kv.Pair) uint32
	SetWorkerPool(p *sim.Pool)
	PrefetchMaps(gpu bool)
	PrefetchReduce(p int, inputs [][]kv.Pair)
}

// timedFullExecutor is timedExecutor for an executor that implements every
// engine extension; it forwards all of them.
type timedFullExecutor struct {
	timedExecutor
	ext engineExtensions
}

func (x *timedFullExecutor) ConfigureIntegrity(c mr.IntegrityConfig) { x.ext.ConfigureIntegrity(c) }
func (x *timedFullExecutor) SetWorkerPool(p *sim.Pool)               { x.ext.SetWorkerPool(p) }
func (x *timedFullExecutor) PrefetchMaps(gpu bool)                   { x.ext.PrefetchMaps(gpu) }
func (x *timedFullExecutor) PrefetchReduce(p int, inputs [][]kv.Pair) {
	x.ext.PrefetchReduce(p, inputs)
}

// PartitionSum is the verify-on-fetch checksum, timed as its own layer.
func (x *timedFullExecutor) PartitionSum(pairs []kv.Pair) uint32 {
	id := x.tr.Begin("seqfile.sum")
	defer x.tr.End(id)
	return x.ext.PartitionSum(pairs)
}

// wrapExecutor returns inner with its task calls timed. The two executors
// the repository has implement either every engine extension
// (mr.FunctionalExecutor) or none (mr.SampledExecutor); the wrapper
// presents the same set, so the engine takes the same paths either way.
func wrapExecutor(inner mr.Executor, tr *Tracer) mr.Executor {
	base := timedExecutor{inner: inner, tr: tr}
	if ext, ok := inner.(engineExtensions); ok {
		return &timedFullExecutor{timedExecutor: base, ext: ext}
	}
	return &base
}

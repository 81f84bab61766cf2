package gpurt

import (
	"io"
	"testing"

	"repro/internal/compiler"
	"repro/internal/gpu"
	"repro/internal/interp"
	"repro/internal/minic"
)

// mapLaunch is a wordcount map kernel at its launch point, with the
// launch-wide objects every map thread binds to.
type mapLaunch struct {
	dev     *gpu.Device
	comp    *compiler.Compiled
	cap     *hostCapture
	opts    Options
	records []Record
	shared  map[*minic.Symbol]*interp.Object
	ipObj   *interp.Object
	store   *KVStore
	input   []byte
}

// newMapLaunch prepares a launch with enough records that every lane of
// every block gets a thread.
func newMapLaunch(tb testing.TB) *mapLaunch {
	tb.Helper()
	dev, err := gpu.NewDevice(gpu.TeslaK40())
	if err != nil {
		tb.Fatal(err)
	}
	comp := compiler.MustCompile(wcMapSrc)
	cap, err := captureHost(comp, io.Discard, nil)
	if err != nil {
		tb.Fatal(err)
	}
	l := &mapLaunch{dev: dev, comp: comp, cap: cap, opts: AllOptimizations()}
	if l.shared, err = sharedBindings(comp.Kernel, cap, l.opts); err != nil {
		tb.Fatal(err)
	}
	l.input = testInput(l.threads())
	l.records = LocateRecords(l.input)
	l.ipObj = interp.NewObject("ip", minic.CharType, len(l.input)+1, interp.SpaceGlobal)
	slots := storeSlotsPerThread(len(l.records), comp.Kernel.KVPairs, l.threads(), true)
	if l.store, err = NewKVStore(comp.Schema, l.threads(), slots, 4); err != nil {
		tb.Fatal(err)
	}
	return l
}

func (l *mapLaunch) threads() int { return l.comp.Kernel.Blocks * l.comp.Kernel.Threads }

func (l *mapLaunch) newThread(i int) (*mapThread, error) {
	return newMapThread(i%l.threads(), l.dev, l.comp, l.cap, l.shared, l.ipObj, l.records, l.store, l.opts, nil)
}

// TestMapThreadPaysOnlyForPrivateState pins what one simulated map thread
// allocates beyond its private variables: its machine, intrinsics, cost
// counters and fragment frames, but no stdin buffer, builtin table or
// symbol tables, which the process, launch and program share.
func TestMapThreadPaysOnlyForPrivateState(t *testing.T) {
	l := newMapLaunch(t)
	var setupErr error
	setup := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := l.newThread(i); err != nil {
				setupErr = err
				b.FailNow()
			}
		}
	})
	private := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := privateBindings(l.comp.Kernel, l.cap, interp.SpaceLocal); err != nil {
				setupErr = err
				b.FailNow()
			}
		}
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	overhead := setup.AllocedBytesPerOp() - private.AllocedBytesPerOp()
	t.Logf("map thread set-up %d B, of which private variables %d B", setup.AllocedBytesPerOp(), private.AllocedBytesPerOp())
	if overhead >= 4<<10 {
		t.Fatalf("a map thread allocates %d B beyond its private variables, want < 4 KiB", overhead)
	}
}

// BenchmarkMapThreadSetup measures building one simulated map thread:
// its machine, intrinsics, private bindings and loop fragments.
func BenchmarkMapThreadSetup(b *testing.B) {
	l := newMapLaunch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.newThread(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombineWarp measures one combine warp, set-up included, over a
// 32-pair chunk of a sorted wordcount partition.
func BenchmarkCombineWarp(b *testing.B) {
	l := newMapLaunch(b)
	if _, err := ExecMapKernel(l.dev, l.comp, l.cap, l.input, l.records, l.store, l.opts); err != nil {
		b.Fatal(err)
	}
	slots := l.store.Aggregate()[0]
	l.store.SortPartition(slots)
	if len(slots) > 32 {
		slots = slots[:32]
	}
	combC := compiler.MustCompile(wcCombineSrc)
	ccap, err := captureHost(combC, io.Discard, nil)
	if err != nil {
		b.Fatal(err)
	}
	shared, err := sharedBindings(combC.Kernel, ccap, l.opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := runCombineWarp(l.dev, combC, ccap, shared, l.store, slots, l.opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time = %v, want 3", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine()
	var last Time
	var step func()
	n := 0
	step = func() {
		last = e.Now()
		n++
		if n < 5 {
			e.After(2, step)
		}
	}
	e.After(2, step)
	e.Run()
	if last != 10 {
		t.Fatalf("last fire at %v, want 10", last)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestEngineCancelAfterFiring(t *testing.T) {
	// Cancelling an event that already fired (popped from the queue) must be
	// a no-op: it must not panic, corrupt the queue, or affect later events.
	e := NewEngine()
	var got []int
	var first *Event
	first = e.At(1, func() {
		got = append(got, 1)
		first.Cancel() // self-cancel while firing
	})
	e.At(2, func() {
		got = append(got, 2)
		first.Cancel() // cancel an event long since fired
	})
	e.At(3, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", e.Fired())
	}
	first.Cancel() // and once more after the run completes
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestEngineRunUntilDeadlineEquality(t *testing.T) {
	// An event scheduled exactly at the deadline fires (the contract is
	// firing times <= deadline), and one epsilon later does not.
	e := NewEngine()
	var got []Time
	e.At(3, func() { got = append(got, 3) })
	e.At(Time(math.Nextafter(3, 4)), func() { t.Fatal("event after deadline fired") })
	e.RunUntil(3)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("got %v, want [3]", got)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(1, func() { got = append(got, 1); e.Halt() })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	// A second Run resumes from the queue.
	e.Run()
	if len(got) != 2 {
		t.Fatalf("resume failed, got %v", got)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(got) != 5 {
		t.Fatalf("Run after RunUntil fired %d total, want 5", len(got))
	}
}

func TestEngineRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("Now = %v, want 42", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(10)
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("event limit did not trip")
		}
	}()
	e.Run()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(123)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(42)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(99)
	const n = 100000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		counts[r.Zipf(100, 1.1)]++
	}
	// Rank 0 must dominate the tail decisively.
	if counts[0] < 5*counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	for i, c := range counts {
		if c == 0 && i < 10 {
			t.Fatalf("head rank %d never drawn", i)
		}
	}
}

func TestRNGZipfBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 200; i++ {
			v := r.Zipf(50, 1.2)
			if v < 0 || v >= 50 {
				return false
			}
		}
		return r.Zipf(1, 1.2) == 0 && r.Zipf(0, 1.2) == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	q := append([]int(nil), p...)
	sort.Ints(q)
	for i, v := range q {
		if v != i {
			t.Fatalf("Perm output not a permutation at %d: %v", i, v)
		}
	}
}

func TestEngineManyEventsStress(t *testing.T) {
	e := NewEngine()
	r := NewRNG(11)
	var last Time
	monotone := true
	for i := 0; i < 5000; i++ {
		at := Time(r.Float64() * 1000)
		e.At(at, func() {
			if e.Now() < last {
				monotone = false
			}
			last = e.Now()
		})
	}
	e.Run()
	if !monotone {
		t.Fatal("clock went backwards during stress run")
	}
	if e.Fired() != 5000 {
		t.Fatalf("Fired = %d, want 5000", e.Fired())
	}
}

// countingHandler embeds its own event, the way a hot caller uses Schedule.
type countingHandler struct {
	ev    Event
	fires []Time
	e     *Engine
}

func (h *countingHandler) Fire() { h.fires = append(h.fires, h.e.Now()) }

func TestEngineScheduleCallerOwnedEvent(t *testing.T) {
	e := NewEngine()
	a, b, c := &countingHandler{e: e}, &countingHandler{e: e}, &countingHandler{e: e}
	e.At(2, func() {
		e.Schedule(&a.ev, 3, a)
		e.Schedule(&b.ev, -1, b) // clamped to now, after this callback
		e.Schedule(&c.ev, 1, c)
		c.ev.Cancel()
	})
	e.Run()
	if len(a.fires) != 1 || a.fires[0] != 5 || a.ev.Time() != 5 {
		t.Fatalf("a fired at %v (event time %v), want [5]", a.fires, a.ev.Time())
	}
	if len(b.fires) != 1 || b.fires[0] != 2 {
		t.Fatalf("b fired at %v, want [2]", b.fires)
	}
	if len(c.fires) != 0 {
		t.Fatalf("cancelled c fired at %v", c.fires)
	}
	// A fired event may be scheduled again, and scheduling allocates nothing.
	a.fires = make([]Time, 0, 1000)
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(&a.ev, 1, a)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Run allocated %v objects per event, want 0", allocs)
	}
}

// TestEngineHeapOrderMatchesSortedReference drives the heap with a random
// workload and checks the firing order against a reference that sorts the
// same events by (at, seq): many equal timestamps, random cancellation,
// events scheduled from inside callbacks and between RunUntil chunks, and
// RunUntil deadlines that split equal-time groups' neighbours.
func TestEngineHeapOrderMatchesSortedReference(t *testing.T) {
	type rec struct {
		at               Time
		seq              int
		ev               *Event
		fired, cancelled bool
	}
	const initial, total = 4000, 12000
	e := NewEngine()
	r := NewRNG(20150615)
	var recs []*rec
	var fired []int
	cancelRandom := func() {
		rc := recs[r.Intn(len(recs))]
		rc.ev.Cancel()
		if !rc.fired {
			rc.cancelled = true
		}
	}
	var schedule func(at Time)
	schedule = func(at Time) {
		rc := &rec{at: at, seq: len(recs)}
		recs = append(recs, rc)
		rc.ev = e.At(at, func() {
			if e.Now() != rc.at {
				t.Fatalf("event %d fired at %v, scheduled for %v", rc.seq, e.Now(), rc.at)
			}
			rc.fired = true
			fired = append(fired, rc.seq)
			for k := r.Intn(3); k > 0 && len(recs) < total; k-- {
				schedule(e.Now() + Time(r.Intn(4))) // often equal to now
			}
			if r.Intn(4) == 0 {
				cancelRandom()
			}
		})
	}
	for i := 0; i < initial; i++ {
		schedule(Time(r.Intn(50)))
	}
	for deadline := Time(5); e.Pending() > 0; deadline += 5 {
		e.RunUntil(deadline)
		for _, rc := range recs {
			if rc.fired && rc.at > deadline {
				t.Fatalf("RunUntil(%v) fired event %d at %v", deadline, rc.seq, rc.at)
			}
			if !rc.fired && !rc.cancelled && rc.at <= deadline {
				t.Fatalf("RunUntil(%v) left live event %d at %v unfired", deadline, rc.seq, rc.at)
			}
		}
		for k := r.Intn(20); k > 0 && len(recs) < total; k-- {
			schedule(e.Now() + Time(r.Intn(10)))
		}
		for k := r.Intn(5); k > 0; k-- {
			cancelRandom()
		}
	}
	if len(recs) < 10_000 {
		t.Fatalf("workload scheduled only %d events", len(recs))
	}
	var want []*rec
	for _, rc := range recs {
		if !rc.cancelled {
			want = append(want, rc)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, reference has %d", len(fired), len(want))
	}
	for i, rc := range want {
		if fired[i] != rc.seq {
			t.Fatalf("firing %d: event %d, reference says %d (at %v)", i, fired[i], rc.seq, rc.at)
		}
	}
	if e.Fired() != uint64(len(want)) {
		t.Fatalf("Fired = %d, want %d", e.Fired(), len(want))
	}
}

// BenchmarkEngineEvents measures the event loop alone: a steady queue of
// 1024 pending events, each firing callback scheduling its successor at a
// pseudo-random offset (with frequent ties), so every event is one push
// and one pop on a heap of constant size.
func BenchmarkEngineEvents(b *testing.B) {
	const depth = 1024
	e := NewEngine()
	r := NewRNG(1)
	left := b.N
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			e.After(Duration(r.Intn(64)), fire)
		}
	}
	for i := 0; i < depth; i++ {
		e.At(Time(r.Intn(64)), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.Fired())/b.Elapsed().Seconds(), "events/s")
}

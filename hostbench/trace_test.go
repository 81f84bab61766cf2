package main

import (
	"testing"
	"time"
)

// tree builds a tracer holding the given spans as (name, parent, start, end)
// in milliseconds.
func tree(spans ...struct {
	name       string
	parent     int32
	start, end int
}) *Tracer {
	t := NewTracer()
	for _, s := range spans {
		t.spans = append(t.spans, Span{Name: t.intern(s.name), Parent: s.parent,
			Start: time.Duration(s.start) * time.Millisecond, End: time.Duration(s.end) * time.Millisecond})
	}
	return t
}

type sp = struct {
	name       string
	parent     int32
	start, end int
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	// run [0,100): compile [0,10), mr.RunJob [10,90) holding two mr.map
	// calls [20,40) and [50,55) and one seqfile.sum [60,61); 10 ms between
	// layers is unexplained.
	bd := tree(
		sp{"run", -1, 0, 100},
		sp{"compile", 0, 0, 10},
		sp{"mr.RunJob", 0, 10, 90},
		sp{"mr.map", 2, 20, 40},
		sp{"mr.map", 2, 50, 55},
		sp{"seqfile.sum", 2, 60, 61},
	).Analyze()
	ms := time.Millisecond
	want := map[string]time.Duration{"compile": 10 * ms, "mr.RunJob": 54 * ms, "mr.map": 25 * ms, "seqfile.sum": ms}
	for name, d := range want {
		if bd.Self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, bd.Self[name], d)
		}
	}
	if bd.Calls["mr.map"] != 2 {
		t.Errorf("mr.map calls = %d, want 2", bd.Calls["mr.map"])
	}
	if bd.Wall != 100*ms || bd.Unexplained != 10*ms {
		t.Errorf("wall %v unexplained %v, want 100ms and 10ms", bd.Wall, bd.Unexplained)
	}
}

// TestLayersAddUpToWall checks, on a real nested trace, that no remainder
// is negative and that the traced wall equals the sum of the layers' self
// times plus the unexplained remainder, to the nanosecond.
func TestLayersAddUpToWall(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("run")
	for i := 0; i < 50; i++ {
		job := tr.Begin("mr.RunJob")
		for j := 0; j < 20; j++ {
			id := tr.Begin("mr.map")
			busy(2000)
			tr.End(id)
		}
		tr.End(job)
		id := tr.Begin("compile")
		busy(1000)
		tr.End(id)
	}
	tr.End(root)

	bd := tr.Analyze()
	if bd.Unexplained < 0 {
		t.Fatalf("unexplained = %v, want >= 0", bd.Unexplained)
	}
	sum := bd.Unexplained
	for name, d := range bd.Self {
		if d < 0 {
			t.Errorf("self(%s) = %v, want >= 0", name, d)
		}
		sum += d
	}
	if sum != bd.Wall {
		t.Fatalf("unexplained + layers = %v, wall = %v", sum, bd.Wall)
	}
	if bd.Calls["mr.map"] != 1000 || bd.Calls["mr.RunJob"] != 50 {
		t.Fatalf("calls = %v", bd.Calls)
	}
}

func TestEndOutOfOrderPanics(t *testing.T) {
	tr := NewTracer()
	a := tr.Begin("a")
	tr.Begin("b")
	defer func() {
		if recover() == nil {
			t.Fatal("closing an outer span first did not panic")
		}
	}()
	tr.End(a)
}

var sink int

func busy(n int) {
	for i := 0; i < n; i++ {
		sink += i
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q != [3]float64{1, 2, 4} {
		t.Fatalf("quartiles = %v", q)
	}
}

package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// Span is one timed call into a layer. It holds no pointers, so a replay
// that records a million spans adds no work to the garbage collector.
type Span struct {
	// Name indexes the tracer's name table.
	Name int32
	// Parent indexes the enclosing span; -1 marks the root.
	Parent int32
	// Start and End are offsets from the tracer's creation.
	Start, End time.Duration
}

// Tracer records the spans and counters of one traced run. It keeps
// everything in memory until the run ends, so the only cost on the measured
// path is two clock reads and an append per span. It serves a single
// goroutine: the traced run executes at one worker, so spans nest and never
// overlap.
type Tracer struct {
	t0     time.Time
	names  []string
	ids    map[string]int32
	spans  []Span
	open   []int
	counts map[string]float64
}

// NewTracer starts a tracer whose clock origin is now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), ids: map[string]int32{}, counts: map[string]float64{}}
}

// intern returns the index of name in the tracer's name table.
func (t *Tracer) intern(name string) int32 {
	id, ok := t.ids[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// Begin opens a span nested in the innermost open span and returns its id.
func (t *Tracer) Begin(name string) int {
	id := t.intern(name)
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = int32(t.open[n-1])
	}
	t.spans = append(t.spans, Span{Name: id, Parent: parent, Start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("hostbench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.t0)
}

// Add increments a counter recorded at a layer boundary.
func (t *Tracer) Add(name string, n float64) { t.counts[name] += n }

// Breakdown is the span arithmetic of one traced run: each layer's self
// time (its spans minus the parts their child spans cover), summed by span
// name, and the root's own self time, which no named layer explains.
type Breakdown struct {
	Wall        time.Duration
	Self        map[string]time.Duration
	Calls       map[string]int
	Unexplained time.Duration
}

// Analyze computes the breakdown of the recorded spans, which must form one
// tree under a single root (the first span). Because every child lies
// inside its parent, the self times of all spans add up exactly to the
// root's duration: Wall == Unexplained + the sum of Self.
func (t *Tracer) Analyze() Breakdown {
	b := Breakdown{Self: map[string]time.Duration{}, Calls: map[string]int{}}
	if len(t.spans) == 0 {
		return b
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	b.Wall = t.spans[0].End - t.spans[0].Start
	b.Unexplained = self[0]
	for i := 1; i < len(t.spans); i++ {
		name := t.names[t.spans[i].Name]
		b.Self[name] += self[i]
		b.Calls[name]++
	}
	return b
}

// WriteChromeTrace writes the root and layer spans (depth 0 and 1) as
// Chrome trace-event JSON, "X" events on one thread. Deeper spans, such as
// the executor calls inside mr.RunJob, can number a million in one run;
// they are written as per-name totals under "otherData" instead.
func (t *Tracer) WriteChromeTrace(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	type total struct {
		Calls int     `json:"calls"`
		SelfS float64 `json:"self_s"`
	}
	var evs []event
	nested := map[string]total{}
	bd := t.Analyze()
	for _, s := range t.spans {
		name := t.names[s.Name]
		if s.Parent < 0 || t.spans[s.Parent].Parent < 0 {
			evs = append(evs, event{Name: name, Ph: "X", Pid: 1, Tid: 1,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3})
		} else {
			nested[name] = total{Calls: bd.Calls[name], SelfS: bd.Self[name].Seconds()}
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": nested})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapObjects reads the cumulative count of heap objects allocated by the
// process, which layer spans difference into allocations per call.
func heapObjects() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

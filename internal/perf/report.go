package perf

import (
	"fmt"
	"io"
	"sort"
)

// Snapshot is a point-in-time copy of a profiler's buckets.
type Snapshot struct {
	Buckets map[Key]Bucket `json:"buckets"`
}

// Entry is one bucket with its key, sorted views attach a fraction.
type Entry struct {
	Key
	Bucket
}

// Entries returns all buckets sorted by self time descending (key order
// breaks ties, so output over identical data is deterministic).
func (s Snapshot) Entries() []Entry {
	out := make([]Entry, 0, len(s.Buckets))
	for k, b := range s.Buckets {
		out = append(out, Entry{Key: k, Bucket: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Nanos != out[j].Nanos {
			return out[i].Nanos > out[j].Nanos
		}
		return out[i].Key.less(out[j].Key)
	})
	return out
}

func (k Key) less(o Key) bool {
	if k.Phase != o.Phase {
		return k.Phase < o.Phase
	}
	if k.Cat != o.Cat {
		return k.Cat < o.Cat
	}
	return k.Name < o.Name
}

// TotalNanos sums the self time of every bucket whose category is in cats
// (all buckets when cats is empty).
func (s Snapshot) TotalNanos(cats ...string) int64 {
	var t int64
	for k, b := range s.Buckets {
		if len(cats) == 0 || containsStr(cats, k.Cat) {
			t += b.Nanos
		}
	}
	return t
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// WriteTable renders the profile as two sections: engine phases (exclusive
// wall time) and interpreter buckets (summed self time across machines,
// top k by time). Percentages are within each section's total, because
// interpreter time accrues inside phases and the two views overlap.
func (s Snapshot) WriteTable(w io.Writer, k int) error {
	entries := s.Entries()

	phaseTotal := s.TotalNanos(CatPhase)
	if phaseTotal > 0 {
		fmt.Fprintf(w, "engine phases (exclusive wall time):\n")
		fmt.Fprintf(w, "  %-22s %12s %14s %7s\n", "phase", "calls", "self", "%")
		for _, e := range entries {
			if e.Cat != CatPhase {
				continue
			}
			fmt.Fprintf(w, "  %-22s %12d %14s %6.1f%%\n",
				e.Name, e.Count, fmtNanos(e.Nanos), 100*float64(e.Nanos)/float64(phaseTotal))
		}
	}

	interpTotal := s.TotalNanos(CatBuiltin, CatOpcode)
	if interpTotal > 0 {
		fmt.Fprintf(w, "interpreter hot paths (self time, top %d):\n", k)
		fmt.Fprintf(w, "  %-10s %-22s %12s %14s %7s\n", "kind", "bucket", "calls", "self", "%")
		agg := map[catName]Bucket{}
		for key, b := range s.Buckets {
			if key.Cat == CatPhase {
				continue
			}
			cn := catName{key.Cat, key.Name}
			acc := agg[cn]
			acc.Count += b.Count
			acc.Nanos += b.Nanos
			agg[cn] = acc
		}
		rows := make([]Entry, 0, len(agg))
		for cn, b := range agg {
			rows = append(rows, Entry{Key: Key{Cat: cn.cat, Name: cn.name}, Bucket: b})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Nanos != rows[j].Nanos {
				return rows[i].Nanos > rows[j].Nanos
			}
			return rows[i].Key.less(rows[j].Key)
		})
		for i, e := range rows {
			if k > 0 && i >= k {
				fmt.Fprintf(w, "  ... %d more buckets\n", len(rows)-i)
				break
			}
			fmt.Fprintf(w, "  %-10s %-22s %12d %14s %6.1f%%\n",
				e.Cat, e.Name, e.Count, fmtNanos(e.Nanos), 100*float64(e.Nanos)/float64(interpTotal))
		}
	}
	return nil
}

// WriteFolded emits the profile as folded stacks (`frame;frame value`
// lines), the input format of flamegraph.pl / speedscope / inferno.
// Phase buckets fold under `phases;`, interpreter buckets under
// `interp;<phase>;<cat>:<name>` so the flamegraph shows where inside each
// phase the interpreter spent its time.
func (s Snapshot) WriteFolded(w io.Writer) error {
	entries := s.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.less(entries[j].Key) })
	for _, e := range entries {
		if e.Nanos == 0 {
			continue
		}
		var err error
		if e.Cat == CatPhase {
			_, err = fmt.Fprintf(w, "phases;%s %d\n", e.Name, e.Nanos)
		} else {
			phase := e.Phase
			if phase == "" {
				phase = "(none)"
			}
			_, err = fmt.Fprintf(w, "interp;%s;%s:%s %d\n", phase, e.Cat, e.Name, e.Nanos)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fmtNanos renders a nanosecond total at a human scale.
func fmtNanos(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.3fs", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.3fms", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.3fµs", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dns", n)
	}
}

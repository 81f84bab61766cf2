package main

import "testing"

// TestPinnedDigests runs every workload at both pinned seeds through the
// experiment entry point at 2 workers and through the traced replay at 1
// worker, and requires both to reproduce the pinned digest with every
// result row valid.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			want := pinnedDigests[w.name][seed]
			o, err := w.run(w.config(seed, 2))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			tr := NewTracer()
			root := tr.Begin("run")
			r, err := w.replay(w.config(seed, 1), tr)
			tr.End(root)
			if err != nil {
				t.Fatalf("%s seed %d replay: %v", w.name, seed, err)
			}
			if o.digest != want || r.digest != want || o.bad != 0 || r.bad != 0 {
				t.Errorf("%s seed %d: untraced %s (%d bad), traced %s (%d bad), pinned %q",
					w.name, seed, o.digest, o.bad, r.digest, r.bad, want)
			}
		}
	}
}

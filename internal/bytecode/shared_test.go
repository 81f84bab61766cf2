package bytecode

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/minic"
)

// TestProgramSharedByConcurrentVMs runs one compiled program on several
// VMs at once, as the GPU runtime's threadblocks do. The per-symbol tables
// are built with the program and only read by VMs, so every run matches a
// sequential one and the race detector stays quiet.
func TestProgramSharedByConcurrentVMs(t *testing.T) {
	src := `
int g = 300;
int main() {
	char c = g;
	int x = 7;
	int *px = &x;
	long l = g * 2;
	double d = x;
	*px += c;
	printf("%d %d %ld %f\n", c, x, l, d);
	return 0;
}`
	mp, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(mp)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"symType": len(prog.symType), "symWidth": len(prog.symWidth), "symConv": len(prog.symConv)} {
		if n != len(prog.Syms) {
			t.Fatalf("%s has %d entries for %d symbols", name, n, len(prog.Syms))
		}
	}
	run := func() (string, interp.CountingSink, error) {
		var out bytes.Buffer
		var sink interp.CountingSink
		m := interp.New(mp, interp.Options{Stdout: &out, Cost: &sink})
		_, err := NewVM(m, prog).Run()
		return out.String(), sink, err
	}
	wantOut, wantSink, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if wantOut != "44 51 600 7.000000\n" {
		t.Fatalf("out = %q", wantOut)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	outs := make([]string, workers)
	sinks := make([]interp.CountingSink, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w], sinks[w], errs[w] = run()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if outs[w] != wantOut || sinks[w] != wantSink {
			t.Fatalf("worker %d: out %q cost %+v, want %q %+v", w, outs[w], sinks[w], wantOut, wantSink)
		}
	}
}

package mr_test

import (
	"testing"

	"repro/internal/mr"
	"repro/internal/workload"
)

// benchMapVM times one benchmark's map stage — a single sequential pass
// of the VM over the input. LR and BS are the compute-heavy stages.
func benchMapVM(b *testing.B, bench *workload.Benchmark) {
	input := bench.Gen(7, 32<<10)
	cj, err := mr.CompileJob(bench.JobFor(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cj.MapF.Run(input); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLRMapVM(b *testing.B) { benchMapVM(b, workload.LinearRegression()) }
func BenchmarkBSMapVM(b *testing.B) { benchMapVM(b, workload.BlackScholes()) }

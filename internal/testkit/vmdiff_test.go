package testkit

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/kv"
	"repro/internal/mr"
	"repro/internal/streaming"
)

// vmSequential is Reference's one-pass pipeline run on the bytecode VM
// (the compiled streaming filters) instead of the tree-walker.
func vmSequential(cj *mr.CompiledJob, input []byte) (string, error) {
	out, _, err := cj.MapF.Run(input)
	if err != nil {
		return "", err
	}
	pairs, err := streaming.ParseKVLines(out, cj.Schema)
	if err != nil {
		return "", err
	}
	if cj.Program.NumReducers <= 0 {
		sort.SliceStable(pairs, func(i, j int) bool {
			return kv.Compare(pairs[i].Key, pairs[j].Key) < 0
		})
		return renderPairs(pairs), nil
	}
	parts := make([][]kv.Pair, cj.Program.NumReducers)
	for _, p := range pairs {
		i := kv.Partition(p.Key, cj.Program.NumReducers)
		parts[i] = append(parts[i], p)
	}
	var final []kv.Pair
	for _, part := range parts {
		kv.SortPairs(part)
		outPairs, _, err := streaming.RunReduce(cj.ReduceF, cj.Schema, [][]kv.Pair{part}, streaming.XeonE52680())
		if err != nil {
			return "", err
		}
		final = append(final, outPairs...)
	}
	return renderPairs(final), nil
}

// checkVMSequential fails the test unless the VM's sequential pass matches
// the tree-walker Reference byte for byte.
func checkVMSequential(t *testing.T, p Program, what string, cj *mr.CompiledJob, ref string) {
	t.Helper()
	got, err := vmSequential(cj, p.Input)
	if err != nil {
		t.Fatalf("seed %d: %s: VM sequential run: %v\nmap source:\n%s", p.Seed, what, err, p.MapSrc)
	}
	if got != ref {
		t.Fatalf("seed %d: %s: VM and tree-walker disagree\nvm:\n%s\ntree-walker:\n%s\nmap source:\n%s\ncombine source:\n%s",
			p.Seed, what, head(got), head(ref), p.MapSrc, p.CombineSrc)
	}
}

// TestVMMatchesTreeWalkerAcrossSeeds pins the execution-core equivalence
// claim without any cluster in between: for every seed in the generated
// corpus, the sequential map→partition→sort→reduce pass on the bytecode
// VM must equal the tree-walker Reference byte for byte. (The cluster
// backends are checked against the same Reference by
// TestGeneratedProgramsAgreeAcrossBackends.)
func TestVMMatchesTreeWalkerAcrossSeeds(t *testing.T) {
	for seed := uint64(0); seed < NumDifferentialSeeds; seed++ {
		p := Generate(seed)
		cj, err := Compile(p)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\nmap source:\n%s", seed, err, p.MapSrc)
		}
		ref, err := Reference(cj, p.Input)
		if err != nil {
			t.Fatalf("seed %d: tree-walker reference: %v\nmap source:\n%s", seed, err, p.MapSrc)
		}
		checkVMSequential(t, p, "default build", cj, ref)
	}
}

// TestVMMatchesTreeWalkerUnoptimized is the same equivalence with the SSA
// optimizer off (-O0), on every backend: the bytecode compiler must lower
// the raw AST as faithfully as the optimized one.
func TestVMMatchesTreeWalkerUnoptimized(t *testing.T) {
	for seed := uint64(0); seed < NumMetamorphicSeeds; seed++ {
		p := Generate(seed)
		cj, err := CompileOpt(p, true)
		if err != nil {
			t.Fatalf("seed %d: -O0 compile: %v\nmap source:\n%s", seed, err, p.MapSrc)
		}
		res, err := RunDifferentialCompiled(cj, p)
		if err != nil {
			t.Fatalf("seed %d: -O0 run: %v\nmap source:\n%s", seed, err, p.MapSrc)
		}
		if !res.Agree() {
			t.Fatalf("seed %d: -O0 backends disagree with the tree-walker\ntree-walker:\n%s\nstreaming:\n%s\ngpu:\n%s\nmap source:\n%s",
				seed, head(res.Sequential), head(res.Streaming), head(res.GPU), p.MapSrc)
		}
		checkVMSequential(t, p, "-O0 build", cj, res.Sequential)
	}
}

// TestVMMatchesTreeWalkerUnderFaults drives the VM's cluster backend
// through recovering fault plans: re-executed attempts and GPU->CPU
// fallbacks must still reproduce the tree-walker Reference.
func TestVMMatchesTreeWalkerUnderFaults(t *testing.T) {
	const faultSeeds = 6
	for seed := uint64(0); seed < faultSeeds; seed++ {
		p := Generate(seed)
		cj, err := Compile(p)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ref, err := Reference(cj, p.Input)
		if err != nil {
			t.Fatalf("seed %d: tree-walker reference: %v", seed, err)
		}
		clean, err := RunCluster(cj, p.Input, ClusterOpts{Scheduler: mr.GPUFirst, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: clean run: %v", seed, err)
		}
		mid := clean.MapPhaseEnd / 2
		specs := []struct{ name, spec string }{
			{"crash-restart", fmt.Sprintf("crash(node=1,at=%g,restart=%g)", mid, clean.Makespan)},
			{"hbloss", fmt.Sprintf("hbloss(node=0,at=%g,for=%g)", mid, clean.Makespan)},
			{"taskfail-gpu", "taskfail(task=0,attempt=0,dev=gpu)"},
			{"gpu-rate", "gpurate=0.3;seed=9"},
		}
		for _, tc := range specs {
			plan, err := faults.Parse(tc.spec)
			if err != nil {
				t.Fatalf("seed %d: plan %s: %v", seed, tc.name, err)
			}
			stats, err := RunCluster(cj, p.Input, ClusterOpts{Scheduler: mr.GPUFirst, Faults: plan, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d: plan %s: run: %v", seed, tc.name, err)
			}
			if got := TextOutput(stats); got != ref {
				t.Fatalf("seed %d: fault plan %s (%s): VM and tree-walker disagree\nvm:\n%s\ntree-walker:\n%s\nmap source:\n%s",
					seed, tc.name, tc.spec, head(got), head(ref), p.MapSrc)
			}
		}
	}
}

package interp

import (
	"errors"

	"repro/internal/minic"
	"repro/internal/perf"
)

// Hooks for the bytecode VM (package bytecode). The VM executes compiled
// register code but delegates everything stateful — object memory,
// globals, string literals, the builtin table, cost charging, the step
// budget — to a Machine, so both execution cores share one runtime and
// produce identical observable behavior (output bytes, cost totals, step
// counts, error strings).

// AddSteps charges n statement steps against the step budget, returning
// ErrMaxSteps when the budget is exhausted. The VM batches the per-block
// statement charges the tree-walker pays one at a time.
func (m *Machine) AddSteps(n int64) error {
	m.steps += n
	if m.steps > m.maxSteps {
		return ErrMaxSteps
	}
	return nil
}

// BuiltinNamed looks up a builtin/intrinsic implementation: the
// machine's intrinsics first, then the shared stdlib table.
func (m *Machine) BuiltinNamed(name string) (Builtin, bool) {
	if impl, ok := m.intrinsics[name]; ok {
		return impl, true
	}
	impl, ok := stdlib[name]
	return impl, ok
}

// CallBuiltin invokes a builtin implementation, attributing its self time
// to a per-name profiler bucket when profiling is on. The caller charges
// the call-overhead cost.
func (m *Machine) CallBuiltin(name string, impl Builtin, args []Value) (Value, error) {
	if m.prof == nil {
		return impl(m, args)
	}
	m.prof.Enter(perf.CatBuiltin, name)
	v, err := impl(m, args)
	m.prof.Exit()
	return v, err
}

// Prof returns the machine's profiling collector (nil when off).
func (m *Machine) Prof() *perf.Collector { return m.prof }

// ExitStatus unwraps the control-flow error the exit() builtin raises,
// reporting the exit code and whether err was an exit.
func ExitStatus(err error) (int, bool) {
	var ex errExit
	if errors.As(err, &ex) {
		return ex.code, true
	}
	return 0, false
}

// The VM's hot loop calls the next three through these inlined
// forwarders. Calling the twins directly changed the code layout of
// bytecode's VM.exec and slowed the fault-sweep host benchmark by 5–12%
// (2-vCPU Xeon, Go 1.24), so they stay.

// ApplyBinary applies a binary operator with the interpreter's exact
// semantics (pointer arithmetic, float promotion, division-by-zero
// errors).
func ApplyBinary(op string, l, r Value) (Value, error) { return applyBinary(op, l, r) }

// ConvertFor converts v to the storage representation of type t.
func ConvertFor(t *minic.Type, v Value) Value { return convertFor(t, v) }

// AddInt adds an integer delta to a value (used for ++/-- semantics:
// floats add, pointers advance, integers add without width truncation).
func AddInt(v Value, d int64) Value { return addInt(v, d) }

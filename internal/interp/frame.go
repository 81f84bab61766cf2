package interp

import (
	"repro/internal/minic"
)

// Frame is an exported handle to one execution scope. Tests bind a kernel
// region's variables into a frame and step the region on the tree-walker
// with EvalIn/ExecIn, the oracle for the bytecode VM's kernel fragments.
type Frame struct {
	f *frame
}

// NewFrame returns an empty frame.
func (m *Machine) NewFrame() *Frame {
	return &Frame{f: &frame{vars: map[*minic.Symbol]*Object{}}}
}

// Bind installs storage for sym in the frame.
func (fr *Frame) Bind(sym *minic.Symbol, obj *Object) {
	fr.f.vars[sym] = obj
}

// Object returns the storage bound to sym, or nil.
func (fr *Frame) Object(sym *minic.Symbol) *Object {
	return fr.f.vars[sym]
}

// EvalIn evaluates an expression within the frame.
func (m *Machine) EvalIn(fr *Frame, e minic.Expr) (Value, error) {
	if err := m.InitGlobals(); err != nil {
		return Value{}, err
	}
	return m.eval(fr.f, e)
}

// ExecIn executes a statement within the frame. It reports terminated=true
// when the statement ended with a return (break/continue propagate as
// normal loop control and report false).
func (m *Machine) ExecIn(fr *Frame, s minic.Stmt) (terminated bool, err error) {
	if err := m.InitGlobals(); err != nil {
		return false, err
	}
	c, err := m.execStmt(fr.f, s)
	if err != nil {
		return false, err
	}
	return c.kind == ctrlReturn, nil
}

// Cost returns the active cost sink (for intrinsics that charge custom
// costs).
func (m *Machine) Cost() CostSink { return m.cost }

// AllocSpace returns the machine's default allocation space.
func (m *Machine) AllocSpace() MemSpace { return m.space }

// GlobalObject returns the storage of a file-scope variable, or nil.
func (m *Machine) GlobalObject(sym *minic.Symbol) *Object {
	return m.globals[sym]
}

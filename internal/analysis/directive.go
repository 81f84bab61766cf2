package analysis

import (
	"fmt"

	"repro/internal/minic"
)

// This file implements the directive verifier (HD101..HD110). The paper's
// translator trusts directives; these checks catch the mistakes §3.2 leaves
// as undefined behavior. Checks run in stages and stop at the first stage
// that reports: later checks would only cascade from the same root cause.
// The clause-level stages (HD101..HD105) are minic.ParseDirective's, so
// the translator rejects exactly the directives they flag.

func (a *analyzer) directivePass(r *regionInfo) {
	// HD101..HD105 come from the directive grammar the translator shares.
	for _, p := range r.problems {
		a.report(p.Code, r.pragma.Pos, p.Msg, p.Fix)
	}
	if len(r.problems) > 0 {
		return
	}
	stages := []func(r *regionInfo) bool{
		a.checkClauseResolution,
		a.checkLengthClauses,
		a.checkRegionUsage,
	}
	for _, stage := range stages {
		if stage(r) {
			return
		}
	}
}

// checkClauseResolution reports HD106 when a clause names a variable that
// is not visible at the region.
func (a *analyzer) checkClauseResolution(r *regionInfo) bool {
	pos := r.pragma.Pos
	n := len(a.diags)
	check := func(clause, name string) {
		if name == "" {
			return
		}
		if _, ok := r.syms[name]; !ok {
			a.report("HD106", pos,
				fmt.Sprintf("clause %s(%s) names a variable that is not visible at the region", clause, name),
				"declare the variable before the pragma or fix the name")
		}
	}
	check("key", r.Key)
	check("value", r.Value)
	check("keyin", r.KeyIn)
	check("valuein", r.ValueIn)
	for _, v := range r.FirstPrivate {
		check("firstprivate", v)
	}
	for _, v := range r.SharedRO {
		check("sharedRO", v)
	}
	for _, v := range r.Texture {
		check("texture", v)
	}
	return len(a.diags) > n
}

// checkLengthClauses reports HD107 when keylength/vallength contradict the
// declared type of the key/value variable.
func (a *analyzer) checkLengthClauses(r *regionInfo) bool {
	n := len(a.diags)
	a.checkLength(r, "keylength", r.KeyLength, "key", r.Key)
	a.checkLength(r, "vallength", r.ValLength, "value", r.Value)
	return len(a.diags) > n
}

func (a *analyzer) checkLength(r *regionInfo, lenClause string, lenVal int, varClause, varName string) {
	if lenVal == 0 || varName == "" {
		return
	}
	sym := r.syms[varName]
	if sym == nil || sym.Type == nil {
		return
	}
	t := sym.Type
	switch {
	case t.Kind == minic.TypeArray && t.Len > 0 && lenVal > t.Len:
		a.report("HD107", r.pragma.Pos,
			fmt.Sprintf("%s(%d) exceeds the declared capacity of %s(%s), which is %s",
				lenClause, lenVal, varClause, varName, t),
			fmt.Sprintf("lower %s to at most %d or widen the array", lenClause, t.Len))
	case t.IsNumeric() && lenVal != t.Size():
		a.report("HD107", r.pragma.Pos,
			fmt.Sprintf("%s(%d) disagrees with %s(%s) of type %s (%d bytes)",
				lenClause, lenVal, varClause, varName, t, t.Size()),
			fmt.Sprintf("drop %s: fixed-size types carry their own length", lenClause))
	}
}

// checkRegionUsage reports HD108 (emit/read variables disagree with the
// clauses), HD109 (combiner value never accumulated), and HD110 (no emit
// at all).
func (a *analyzer) checkRegionUsage(r *regionInfo) bool {
	n := len(a.diags)
	printfs := 0
	minic.Inspect(r.pragma.Body, func(n minic.Node) bool {
		c, ok := n.(*minic.Call)
		switch {
		case !ok:
		case c.Name == "printf":
			printfs++
			a.checkEmitArgs(r, c)
		case c.Name == "scanf" && r.Combiner:
			a.checkReadArgs(r, c)
		}
		return true
	})
	if printfs == 0 {
		a.report("HD110", r.pragma.Pos,
			fmt.Sprintf("%s region never emits a key/value pair (no printf call)", r.KindName()),
			"emit with printf(\"...\", key, value) inside the region")
	}
	if r.Combiner && r.Value != "" {
		if sym := r.syms[r.Value]; sym != nil && sym.Type != nil && !sym.Type.IsPointerLike() {
			if !accumulates(r.pragma.Body, sym) {
				a.report("HD109", r.pragma.Pos,
					fmt.Sprintf("combiner value variable %q is never accumulated in the region", r.Value),
					fmt.Sprintf("combine the incoming %s into %s (e.g. %s += %s)", r.ValueIn, r.Value, r.Value, r.ValueIn))
			}
		}
	}
	return len(a.diags) > n
}

// checkEmitArgs verifies a two-argument printf emit against key/value.
// printf calls with a different arity (progress messages, multi-part reduce
// output) are left alone: only the canonical `printf(fmt, k, v)` emit form
// is translated to emitKV.
func (a *analyzer) checkEmitArgs(r *regionInfo, c *minic.Call) {
	if len(c.Args) != 3 {
		return
	}
	a.checkKVArg(r, c, "key", r.Key, c.Args[1])
	a.checkKVArg(r, c, "value", r.Value, c.Args[2])
}

// checkReadArgs verifies a two-argument scanf read against keyin/valuein.
func (a *analyzer) checkReadArgs(r *regionInfo, c *minic.Call) {
	if len(c.Args) != 3 {
		return
	}
	a.checkKVArg(r, c, "keyin", r.KeyIn, c.Args[1])
	a.checkKVArg(r, c, "valuein", r.ValueIn, c.Args[2])
}

func (a *analyzer) checkKVArg(r *regionInfo, c *minic.Call, clause, want string, arg minic.Expr) {
	if want == "" {
		return
	}
	// Strip the & that scanf arguments carry.
	if u, ok := arg.(*minic.Unary); ok && u.Op == "&" {
		arg = u.X
	}
	id, ok := arg.(*minic.Ident)
	if !ok {
		// Literals and computed expressions are legal emit arguments.
		return
	}
	if id.Name != want {
		verb := "emits"
		call := "printf"
		if c.Name == "scanf" {
			verb = "reads"
			call = "scanf"
		}
		a.report("HD108", c.Pos,
			fmt.Sprintf("%s %s %q where the directive declares %s(%s)", call, verb, id.Name, clause, want),
			fmt.Sprintf("use %s in the %s position or update the %s clause", want, clause, clause))
	}
}

// accumulates reports whether the region updates sym from its prior value:
// a compound assignment, ++/--, or `sym = ...sym...`.
func accumulates(region minic.Stmt, sym *minic.Symbol) bool {
	isSym := func(n minic.Node) bool {
		id, ok := n.(*minic.Ident)
		return ok && id.Sym == sym
	}
	reads := func(e minic.Expr) bool {
		found := false
		minic.Inspect(e, func(n minic.Node) bool {
			found = found || isSym(n)
			return !found
		})
		return found
	}
	found := false
	minic.Inspect(region, func(n minic.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *minic.Assign:
			found = isSym(x.L) && (x.Op != "=" || reads(x.R))
		case *minic.Unary:
			found = (x.Op == "++" || x.Op == "--") && isSym(x.X)
		case *minic.Postfix:
			found = isSym(x.X)
		}
		return true
	})
	return found
}

package minic

// Inspect traverses the AST rooted at n in pre-order: it calls f(n) and,
// when f returns true, inspects each non-nil child of n in source order
// (the fields of a node, top to bottom). Returning false prunes n's
// children. Children are read after f returns, so f may rewrite n's fields
// and the walk follows the new tree. Inspect is the one structural
// traversal of MiniC; passes that need evaluation order or rewrite the
// tree through setters keep their own semantic walkers.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch x := n.(type) {
	case *Unary:
		Inspect(x.X, f)
	case *Postfix:
		Inspect(x.X, f)
	case *Binary:
		Inspect(x.L, f)
		Inspect(x.R, f)
	case *Assign:
		Inspect(x.L, f)
		Inspect(x.R, f)
	case *Cond:
		Inspect(x.C, f)
		Inspect(x.T, f)
		Inspect(x.F, f)
	case *Call:
		for _, a := range x.Args {
			Inspect(a, f)
		}
	case *Index:
		Inspect(x.X, f)
		Inspect(x.Idx, f)
	case *Cast:
		Inspect(x.X, f)
	case *DeclStmt:
		for _, d := range x.Decls {
			Inspect(d.Init, f)
		}
	case *ExprStmt:
		Inspect(x.X, f)
	case *Block:
		for _, s := range x.Stmts {
			Inspect(s, f)
		}
	case *If:
		Inspect(x.Cond, f)
		Inspect(x.Then, f)
		Inspect(x.Else, f)
	case *While:
		Inspect(x.Cond, f)
		Inspect(x.Body, f)
	case *For:
		Inspect(x.Init, f)
		Inspect(x.Cond, f)
		Inspect(x.Post, f)
		Inspect(x.Body, f)
	case *Return:
		Inspect(x.X, f)
	case *PragmaStmt:
		Inspect(x.Body, f)
	case *FuncDecl:
		if x.Body != nil {
			Inspect(x.Body, f)
		}
	}
}

// VisibleSymbols maps the names visible inside fn to their symbols:
// file-scope globals, then fn's parameters, then every declaration nested
// anywhere in its body in source order. A later declaration of the same
// name wins, which matches the benchmarks' usage (unique names).
func VisibleSymbols(fn *FuncDecl, prog *Program) map[string]*Symbol {
	out := map[string]*Symbol{}
	for _, g := range prog.Globals {
		for _, d := range g.Decls {
			out[d.Name] = d.Sym
		}
	}
	for _, p := range fn.Params {
		out[p.Name] = p.Sym
	}
	Inspect(fn.Body, func(n Node) bool {
		if ds, ok := n.(*DeclStmt); ok {
			for _, d := range ds.Decls {
				out[d.Name] = d.Sym
			}
		}
		_, isStmt := n.(Stmt)
		return isStmt
	})
	return out
}

// PragmaSite is one pragma statement together with the function whose
// body contains it.
type PragmaSite struct {
	*PragmaStmt
	Func *FuncDecl
}

// FindPragmas returns every PragmaStmt of the program, in source order,
// together with the function containing it.
func FindPragmas(prog *Program) []PragmaSite {
	var out []PragmaSite
	for _, fn := range prog.Funcs {
		Inspect(fn.Body, func(n Node) bool {
			if p, ok := n.(*PragmaStmt); ok {
				out = append(out, PragmaSite{PragmaStmt: p, Func: fn})
			}
			_, isStmt := n.(Stmt)
			return isStmt
		})
	}
	return out
}

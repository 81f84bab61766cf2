package minic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// allNodes returns one zero value of every AST node type.
func allNodes() []Node {
	return []Node{
		&Ident{}, &IntLit{}, &FloatLit{}, &CharLit{}, &StrLit{},
		&Unary{}, &Postfix{}, &Binary{}, &Assign{}, &Cond{}, &Call{},
		&Index{}, &Cast{}, &SizeofType{},
		&DeclStmt{}, &ExprStmt{}, &EmptyStmt{}, &Block{}, &If{}, &While{},
		&For{}, &Return{}, &Break{}, &Continue{}, &PragmaStmt{},
		&FuncDecl{},
	}
}

// declaredNodeTypes lists the package's node types from its source: every
// struct embedding exprBase or stmtBase, plus every type with a nodePos
// method.
func declaredNodeTypes(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, f := range pkgs["minic"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						if id, ok := fld.Type.(*ast.Ident); ok && len(fld.Names) == 0 &&
							(id.Name == "exprBase" || id.Name == "stmtBase") {
							set[ts.Name.Name] = true
						}
					}
				}
			case *ast.FuncDecl:
				if d.Name.Name != "nodePos" || d.Recv == nil {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.Name != "exprBase" && id.Name != "stmtBase" {
					set[id.Name] = true
				}
			}
		}
	}
	var out []string
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestInspectReachesEveryChild fills every child field of every node type
// (Expr, Stmt, []Expr, []Stmt, []*Declarator with a non-nil Init, and
// pointers to nodes) with distinct marker nodes and checks that Inspect
// visits the node first and then every marker, in field order. The node
// list is checked against the types declared in the package source, so a
// node type or child field added later cannot be skipped silently.
func TestInspectReachesEveryChild(t *testing.T) {
	listed := map[string]bool{}
	for _, n := range allNodes() {
		listed[reflect.TypeOf(n).Elem().Name()] = true
	}
	for _, name := range declaredNodeTypes(t) {
		if !listed[name] {
			t.Errorf("node type %s is missing from allNodes", name)
		}
	}

	exprT := reflect.TypeOf((*Expr)(nil)).Elem()
	stmtT := reflect.TypeOf((*Stmt)(nil)).Elem()
	nodeT := reflect.TypeOf((*Node)(nil)).Elem()
	declsT := reflect.TypeOf([]*Declarator(nil))
	for _, n := range allNodes() {
		v := reflect.ValueOf(n).Elem()
		var want []Node
		expr := func() Node { m := &Ident{Name: "marker"}; want = append(want, m); return m }
		stmt := func() Node { m := &EmptyStmt{}; want = append(want, m); return m }
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				continue
			}
			switch ft := f.Type(); {
			case ft == exprT:
				f.Set(reflect.ValueOf(expr()))
			case ft == stmtT:
				f.Set(reflect.ValueOf(stmt()))
			case ft == reflect.SliceOf(exprT):
				f.Set(reflect.ValueOf([]Expr{expr().(Expr), expr().(Expr)}))
			case ft == reflect.SliceOf(stmtT):
				f.Set(reflect.ValueOf([]Stmt{stmt().(Stmt), stmt().(Stmt)}))
			case ft == declsT:
				f.Set(reflect.ValueOf([]*Declarator{
					{Name: "a", Init: expr().(Expr)}, {Name: "b"}, {Name: "c", Init: expr().(Expr)},
				}))
			case ft.Kind() == reflect.Pointer && ft.Implements(nodeT):
				m := reflect.New(ft.Elem())
				want = append(want, m.Interface().(Node))
				f.Set(m)
			case ft.Kind() == reflect.Interface || ft.Kind() == reflect.Slice && ft.Elem().Implements(nodeT):
				t.Errorf("%T.%s: child field of type %s is not covered by this test",
					n, v.Type().Field(i).Name, ft)
			}
		}
		var got []Node
		Inspect(n, func(x Node) bool {
			got = append(got, x)
			return x == n // visit n's children, not the markers'
		})
		if len(got) == 0 || got[0] != n {
			t.Errorf("%T: Inspect did not visit the node first", n)
			continue
		}
		if !reflect.DeepEqual(nodeAddrs(got[1:]), nodeAddrs(want)) {
			t.Errorf("%T: Inspect reached %d of %d children (or out of field order)",
				n, len(got)-1, len(want))
		}
	}
}

func nodeAddrs(ns []Node) []uintptr {
	out := make([]uintptr, len(ns))
	for i, n := range ns {
		out[i] = reflect.ValueOf(n).Pointer()
	}
	return out
}

// TestInspectPrunes checks that returning false skips a node's subtree
// but not its siblings.
func TestInspectPrunes(t *testing.T) {
	prog, err := ParseAndCheck(`int main() { int a = 1; if (a) { a = a + 2; } return a * 3; }`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	Inspect(prog.Func("main").Body, func(n Node) bool {
		kinds = append(kinds, strings.TrimPrefix(reflect.TypeOf(n).String(), "*minic."))
		_, isIf := n.(*If)
		return !isIf
	})
	want := "Block DeclStmt IntLit If Return Binary Ident IntLit"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("visit order = %q, want %q", got, want)
	}
}

func TestVisibleSymbolsAndFindPragmas(t *testing.T) {
	prog, err := ParseAndCheck(`int g;
int helper(int p) { return p; }
int main() {
	int k = 0, v = 0;
	for (int i = 0; i < 2; i++) { int inner = i; k = inner; }
	#pragma mapreduce mapper key(k) value(v)
	while (k < 0) { printf("%d\t%d\n", k, v); }
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	sites := FindPragmas(prog)
	if len(sites) != 1 || sites[0].Func != prog.Func("main") || !sites[0].IsMapReduce() {
		t.Fatalf("FindPragmas = %+v, want one mapreduce pragma in main", sites)
	}
	var names []string
	for name := range VisibleSymbols(sites[0].Func, prog) {
		names = append(names, name)
	}
	sort.Strings(names)
	if got := strings.Join(names, " "); got != "g i inner k v" {
		t.Errorf("visible in main = %q, want %q", got, "g i inner k v")
	}
	if syms := VisibleSymbols(prog.Func("helper"), prog); syms["p"] == nil || syms["k"] != nil {
		t.Errorf("visible in helper = %v, want g and p only", syms)
	}
}

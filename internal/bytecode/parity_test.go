package bytecode

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// runWalker executes src on the tree-walker.
func runWalker(t *testing.T, src, stdin string, maxSteps int64) (out string, code int, err error, sink interp.CountingSink, steps int64) {
	t.Helper()
	prog, perr := minic.ParseAndCheck(src)
	if perr != nil {
		t.Fatalf("parse: %v", perr)
	}
	var buf bytes.Buffer
	m := interp.New(prog, interp.Options{
		Stdin:    strings.NewReader(stdin),
		Stdout:   &buf,
		Cost:     &sink,
		MaxSteps: maxSteps,
	})
	code, err = m.Run()
	return buf.String(), code, err, sink, m.Steps()
}

// runVM compiles src to bytecode and executes it on the VM.
func runVM(t *testing.T, src, stdin string, maxSteps int64) (out string, code int, err error, sink interp.CountingSink, steps int64, prog *Program) {
	t.Helper()
	mp, perr := minic.ParseAndCheck(src)
	if perr != nil {
		t.Fatalf("parse: %v", perr)
	}
	prog, cerr := Compile(mp)
	if cerr != nil {
		t.Fatalf("compile: %v", cerr)
	}
	var buf bytes.Buffer
	m := interp.New(mp, interp.Options{
		Stdin:    strings.NewReader(stdin),
		Stdout:   &buf,
		Cost:     &sink,
		MaxSteps: maxSteps,
	})
	vm := NewVM(m, prog)
	code, err = vm.Run()
	return buf.String(), code, err, sink, m.Steps(), prog
}

// checkParity asserts byte-identical output, exit status, error text, and
// exact cost/step totals between walker and VM.
func checkParity(t *testing.T, src string) {
	t.Helper()
	checkParityIO(t, src, "")
}

func checkParityIO(t *testing.T, src, stdin string) {
	t.Helper()
	wOut, wCode, wErr, wSink, wSteps := runWalker(t, src, stdin, 0)
	vOut, vCode, vErr, vSink, vSteps, _ := runVM(t, src, stdin, 0)

	if wOut != vOut {
		t.Fatalf("output mismatch:\nwalker: %q\nvm:     %q", wOut, vOut)
	}
	if wCode != vCode {
		t.Fatalf("exit code mismatch: walker %d, vm %d", wCode, vCode)
	}
	if (wErr == nil) != (vErr == nil) || (wErr != nil && wErr.Error() != vErr.Error()) {
		t.Fatalf("error mismatch:\nwalker: %v\nvm:     %v", wErr, vErr)
	}
	if wErr != nil {
		// Erroring runs only guarantee identical observable output and
		// error text (charge batching may differ at the abort point).
		return
	}
	if wSteps != vSteps {
		t.Fatalf("step count mismatch: walker %d, vm %d", wSteps, vSteps)
	}
	if wSink != vSink {
		t.Fatalf("cost totals mismatch:\nwalker: %+v\nvm:     %+v", wSink, vSink)
	}
}

func TestParityArithmetic(t *testing.T) {
	checkParity(t, `
int main() {
	int a = 6;
	int b = 7;
	int c = a * b + a - b;
	int d = c / 3;
	int e = c % 5;
	long big = 1;
	big = big << 40;
	printf("%d %d %d %ld\n", c, d, e, big);
	printf("%d %d %d\n", a & b, a | b, a ^ b);
	printf("%d %d\n", big >> 38, -a);
	printf("%d %d %d\n", !a, !0, ~a);
	return c;
}`)
}

func TestParityFloats(t *testing.T) {
	checkParity(t, `
int main() {
	double x = 1.5;
	double y = 2.25;
	float f = 0.5;
	double z = x * y + f;
	printf("%f %f\n", z, x / y);
	printf("%d %d %d\n", x < y, x >= y, z != 0.0);
	printf("%f\n", -z);
	int i = 3;
	printf("%f\n", x + i);
	return 0;
}`)
}

func TestParityControlFlow(t *testing.T) {
	checkParity(t, `
int main() {
	int sum = 0;
	int i;
	for (i = 0; i < 10; i++) {
		if (i % 2 == 0)
			sum += i;
		else
			sum -= 1;
	}
	int j = 0;
	while (j < 5) {
		sum = sum + j;
		j++;
		if (j == 3)
			continue;
		if (j == 4)
			break;
	}
	printf("%d %d %d\n", sum, i, j);
	return 0;
}`)
}

func TestParityShortCircuit(t *testing.T) {
	checkParity(t, `
int noisy(int v) {
	printf("eval %d\n", v);
	return v;
}
int main() {
	int a = noisy(1) && noisy(0);
	int b = noisy(0) && noisy(5);
	int c = noisy(0) || noisy(2);
	int d = noisy(3) || noisy(4);
	printf("%d %d %d %d\n", a, b, c, d);
	int e = (a || b) ? noisy(7) : noisy(8);
	int f = a ? noisy(9) : noisy(10);
	printf("%d %d\n", e, f);
	return 0;
}`)
}

func TestParityCallsAndRecursion(t *testing.T) {
	checkParity(t, `
int fib(int n) {
	if (n < 2)
		return n;
	return fib(n - 1) + fib(n - 2);
}
int twice(int x) { return x + x; }
int main() {
	printf("%d %d\n", fib(12), twice(fib(5)));
	return 0;
}`)
}

func TestParityArraysAndPointers(t *testing.T) {
	checkParity(t, `
int g[4];
int sumArr(int *p, int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++)
		s += p[i];
	return s;
}
int main() {
	int a[10];
	int i;
	for (i = 0; i < 10; i++)
		a[i] = i * i;
	int *p = &a[2];
	p[1] = 100;
	*p = 50;
	(*p)++;
	p[1] += 7;
	g[0] = 1;
	g[3] = 4;
	printf("%d %d %d\n", sumArr(a, 10), sumArr(g, 4), *p);
	int m[3][4];
	m[1][2] = 42;
	m[2][3] = m[1][2] + 1;
	printf("%d %d\n", m[1][2], m[2][3]);
	return 0;
}`)
}

func TestParityGlobalsAndStrings(t *testing.T) {
	checkParity(t, `
int counter = 3;
double scale = 1.5;
char *msg;
int bump() {
	counter++;
	return counter;
}
int main() {
	msg = "hello";
	printf("%s %d %d %f\n", msg, bump(), bump(), scale);
	printf("%c\n", msg[1]);
	return counter;
}`)
}

func TestParityUntrackedLocals(t *testing.T) {
	// Address-taken locals are demoted to objects; ++/-- and compound
	// assignment on them take the opaque-effect path.
	checkParity(t, `
int main() {
	int x = 5;
	int *px = &x;
	x++;
	x += 10;
	--x;
	int old = x--;
	*px += 2;
	printf("%d %d %d\n", x, old, *px);
	double d = 1.0;
	double *pd = &d;
	d += 0.5;
	printf("%f %f\n", d, *pd);
	char buf[4];
	buf[0] = 65;
	buf[0]++;
	buf[1] = buf[0] + 1;
	printf("%c%c\n", buf[0], buf[1]);
	return 0;
}`)
}

func TestParityConversions(t *testing.T) {
	checkParity(t, `
int main() {
	char c = 300;
	int i = 1073741824;
	i = i * 4;
	float f = 0.1;
	double d = f;
	long l = d * 100;
	printf("%d %d %f %ld\n", c, i, d, l);
	int t = (int)(3.99);
	char t2 = (char)(65.5);
	printf("%d %d\n", t, t2);
	return 0;
}`)
}

func TestParityExit(t *testing.T) {
	checkParity(t, `
int helper() {
	printf("before\n");
	exit(7);
	printf("after\n");
	return 0;
}
int main() {
	helper();
	printf("unreached\n");
	return 0;
}`)
}

func TestParityStdinRecords(t *testing.T) {
	checkParityIO(t, `
int main() {
	char line[256];
	int total = 0;
	while (getRecord(line) > 0) {
		total += atoi(line);
	}
	printf("%d\n", total);
	return 0;
}`, "5\n10\n27\n")
}

func TestParityRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"div-zero", `
int main() {
	int z = 0;
	printf("start\n");
	int x = 10 / z;
	printf("%d\n", x);
	return 0;
}`},
		{"mod-zero", `
int main() {
	int z = 0;
	int x = 10 % z;
	return x;
}`},
		{"oob-load", `
int main() {
	int a[3];
	int i = 7;
	printf("start\n");
	return a[i];
}`},
		{"oob-store", `
int main() {
	int a[3];
	int i = -1;
	a[i] = 5;
	return 0;
}`},
		{"null-deref", `
int main() {
	int *p;
	return *p;
}`},
		{"null-store", `
int main() {
	int *p;
	*p = 3;
	return 0;
}`},
		{"float-div-zero", `
int main() {
	double z = 0.0;
	double x = 1.0 / z;
	printf("%f\n", x);
	return 0;
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkParityIO(t, tc.src, "")
		})
	}
}

func TestParityStepBudget(t *testing.T) {
	src := `
int main() {
	int i = 0;
	while (1) {
		i++;
		if (i % 1000 == 0)
			printf("%d\n", i);
	}
	return 0;
}`
	wOut, _, wErr, _, _ := runWalker(t, src, "", 5000)
	vOut, _, vErr, _, _, _ := runVM(t, src, "", 5000)
	if wErr == nil || vErr == nil {
		t.Fatalf("expected step budget exhaustion, walker %v vm %v", wErr, vErr)
	}
	if wErr.Error() != vErr.Error() {
		t.Fatalf("error mismatch: %v vs %v", wErr, vErr)
	}
	if wOut != vOut {
		t.Fatalf("output mismatch under budget:\nwalker: %q\nvm:     %q", wOut, vOut)
	}
}

// TestParityOptimized runs the same sources through the AST optimizer
// first: the bytecode compiler consumes optimizer output in production.
func TestParityOptimized(t *testing.T) {
	srcs := []string{`
int main() {
	int sum = 0;
	int i;
	for (i = 0; i < 100; i++)
		sum += i * 2;
	printf("%d\n", sum);
	return 0;
}`, `
double sq(double x) { return x * x; }
int main() {
	double acc = 0.0;
	int i;
	for (i = 1; i <= 50; i++)
		acc += sq(i) / (i + 1);
	printf("%f\n", acc);
	return 0;
}`}
	for i, src := range srcs {
		wp, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		ir.OptimizeProgram(wp)
		var wBuf bytes.Buffer
		var wSink interp.CountingSink
		wm := interp.New(wp, interp.Options{Stdout: &wBuf, Cost: &wSink})
		wCode, wErr := wm.Run()

		vp, err := minic.ParseAndCheck(src)
		if err != nil {
			t.Fatal(err)
		}
		ir.OptimizeProgram(vp)
		bc, err := Compile(vp)
		if err != nil {
			t.Fatal(err)
		}
		var vBuf bytes.Buffer
		var vSink interp.CountingSink
		vm2 := interp.New(vp, interp.Options{Stdout: &vBuf, Cost: &vSink})
		vCode, vErr := NewVM(vm2, bc).Run()

		if wBuf.String() != vBuf.String() || wCode != vCode || (wErr == nil) != (vErr == nil) {
			t.Fatalf("case %d mismatch: %q/%d/%v vs %q/%d/%v", i, wBuf.String(), wCode, wErr, vBuf.String(), vCode, vErr)
		}
		if wSink != vSink {
			t.Fatalf("case %d cost mismatch:\nwalker: %+v\nvm:     %+v", i, wSink, vSink)
		}
		if wm.Steps() != vm2.Steps() {
			t.Fatalf("case %d steps mismatch: %d vs %d", i, wm.Steps(), vm2.Steps())
		}
	}
}

// TestFragmentParity compiles a loop body + condition as kernel fragments
// and compares against ExecIn/EvalIn on the same machine state: output,
// the bound variables, cost totals, and steps. A body that calls user
// helpers must carry their compiled code (transitively) in the fragment.
func TestFragmentParity(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		callees []string
	}{
		{"inline", `
int main() {
	int i;
	int n;
	int sum;
	while (i < n) {
		sum = sum + i * i;
		i = i + 1;
	}
	return 0;
}`, nil},
		{"helper-call", `
int scale = 3;
int square(int x) { return x * x * scale; }
int addsq(int a, int b) {
	printf("%d\n", a);
	return a + square(b);
}
int main() {
	int i;
	int n;
	int sum;
	while (i < n) {
		sum = addsq(sum, i);
		i = i + 1;
	}
	return 0;
}`, []string{"addsq", "square"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkFragmentParity(t, tc.src, tc.callees)
		})
	}
}

func checkFragmentParity(t *testing.T, src string, callees []string) {
	prog, err := minic.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	var loop *minic.While
	for _, s := range prog.Func("main").Body.Stmts {
		if w, ok := s.(*minic.While); ok {
			loop = w
		}
	}
	if loop == nil {
		t.Fatal("no while loop found")
	}

	condProg, err := CompileFragmentExpr(prog, loop.Cond)
	if err != nil {
		t.Fatalf("cond fragment: %v", err)
	}
	bodyProg, err := CompileFragmentStmt(prog, loop.Body)
	if err != nil {
		t.Fatalf("body fragment: %v", err)
	}
	for _, name := range callees {
		if bodyProg.Fn(name) == nil {
			t.Errorf("body fragment lacks callee %s:\n%s", name, Disassemble(bodyProg))
		}
	}

	type result struct {
		out   string
		sum   int64
		sink  interp.CountingSink
		steps int64
	}
	run := func(useVM bool) result {
		var sink interp.CountingSink
		var out bytes.Buffer
		m := interp.New(prog, interp.Options{Cost: &sink, Stdout: &out})
		fr := m.NewFrame()
		intT := loop.Cond.(*minic.Binary).L.Type()
		bind := func(name string, v int64) *interp.Object {
			var sym *minic.Symbol
			minicWalk(prog, func(id *minic.Ident) {
				if id.Name == name {
					sym = id.Sym
				}
			})
			obj := interp.NewObject(name, intT, 1, interp.SpaceRAM)
			obj.Cells[0] = interp.IntVal(v)
			fr.Bind(sym, obj)
			return obj
		}
		bind("i", 0)
		bind("n", 25)
		sumObj := bind("sum", 0)

		if useVM {
			lookup := func(sym *minic.Symbol) *interp.Object {
				if obj := fr.Object(sym); obj != nil {
					return obj
				}
				return m.GlobalObject(sym)
			}
			cond, err := NewFragmentVM(m, condProg, lookup)
			if err != nil {
				t.Fatalf("cond fragment: %v", err)
			}
			body, err := NewFragmentVM(m, bodyProg, lookup)
			if err != nil {
				t.Fatalf("body fragment: %v", err)
			}
			for {
				v, _, err := cond.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !v.Truthy() {
					break
				}
				if _, _, err := body.Run(); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for {
				v, err := m.EvalIn(fr, loop.Cond)
				if err != nil {
					t.Fatal(err)
				}
				if !v.Truthy() {
					break
				}
				if _, err := m.ExecIn(fr, loop.Body); err != nil {
					t.Fatal(err)
				}
			}
		}
		return result{out.String(), sumObj.Cells[0].AsInt(), sink, m.Steps()}
	}

	w, v := run(false), run(true)
	if w.out != v.out {
		t.Fatalf("output mismatch:\nwalker: %q\nvm:     %q", w.out, v.out)
	}
	if w.sum != v.sum {
		t.Fatalf("sum mismatch: walker %d, vm %d", w.sum, v.sum)
	}
	if w.sink != v.sink {
		t.Fatalf("cost mismatch:\nwalker: %+v\nvm:     %+v", w.sink, v.sink)
	}
	if w.steps != v.steps {
		t.Fatalf("steps mismatch: walker %d, vm %d", w.steps, v.steps)
	}
}

// TestCaptureHaltsAtPragma runs capture builds to their mapreduce pragma:
// a kept symbol holds its launch-point value in the halted frame and
// nothing after the pragma runs; a run that exits first reports no halt.
func TestCaptureHaltsAtPragma(t *testing.T) {
	const tmpl = `
int main() {
	int k = 0;
	int v = 7;
	printf("before\n");
	k = v * 6;
	PREFIX
	#pragma mapreduce mapper key(k) value(v)
	while (k > 0) {
		printf("region\n");
		k = k - 1;
	}
	printf("after\n");
	return 0;
}`
	for _, tc := range []struct {
		name, prefix string
		halts        bool
	}{
		{"halts", "", true},
		{"exits-first", "exit(0);", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := minic.ParseAndCheck(strings.Replace(tmpl, "PREFIX", tc.prefix, 1))
			if err != nil {
				t.Fatal(err)
			}
			var kSym *minic.Symbol
			minicWalk(prog, func(id *minic.Ident) {
				if id.Name == "k" {
					kSym = id.Sym
				}
			})
			code, err := CompileCapture(prog, func(sym *minic.Symbol) bool { return sym == kSym })
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			halt, err := NewVM(interp.New(prog, interp.Options{Stdout: &out}), code).RunToHalt()
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != "before\n" {
				t.Fatalf("output %q, want only the pre-region line", out.String())
			}
			if !tc.halts {
				if halt != nil {
					t.Fatal("run that exits before the pragma reported a halt")
				}
				return
			}
			if halt == nil {
				t.Fatal("run never halted at the pragma")
			}
			if obj := halt.Object(kSym); obj == nil || obj.Cells[0].AsInt() != 42 {
				t.Fatalf("captured k = %+v, want 42", obj)
			}
		})
	}
}

// minicWalk visits every Ident in every function body.
func minicWalk(prog *minic.Program, visit func(*minic.Ident)) {
	for _, fn := range prog.Funcs {
		minic.Inspect(fn.Body, func(n minic.Node) bool {
			if id, ok := n.(*minic.Ident); ok {
				visit(id)
			}
			return true
		})
	}
}

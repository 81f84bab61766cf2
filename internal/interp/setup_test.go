package interp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/minic"
)

var machineSink *Machine

// TestNewAllocatesLittle pins the cost of building a machine: no stdin
// buffer when there is no input and no copy of the stdlib table. The GPU
// runtime builds one machine per simulated thread.
func TestNewAllocatesLittle(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			machineSink = New(prog, Options{})
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Fatalf("interp.New allocates %d B, want < 4 KiB", got)
	}
}

// TestNilStdinReadsEOF checks that a machine without input reports EOF
// from every stdin builtin, on the first read and on every read after it,
// exactly as a machine reading an empty stream does.
func TestNilStdinReadsEOF(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"getline", `
int main() {
	char *line = 0;
	size_t n = 0;
	printf("%d ", getline(&line, &n, stdin));
	printf("%d", getline(&line, &n, stdin));
	return 0;
}`, "-1 -1"},
		{"scanf", `
int main() {
	char w[8];
	int d;
	double f;
	char c;
	printf("%d ", scanf("%s", w));
	printf("%d ", scanf("%d", &d));
	printf("%d ", scanf("%lf", &f));
	printf("%d", scanf("%c", &c));
	return 0;
}`, "-1 -1 -1 -1"},
		{"getchar", `
int main() {
	printf("%d ", getchar());
	printf("%d", getchar());
	return 0;
}`, "-1 -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := minic.ParseAndCheck(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []struct {
				name  string
				stdin *strings.Reader
			}{{"nil", nil}, {"empty", strings.NewReader("")}} {
				var out bytes.Buffer
				opts := Options{Stdout: &out}
				if in.stdin != nil {
					opts.Stdin = in.stdin
				}
				m := New(prog, opts)
				if _, err := m.Run(); err != nil {
					t.Fatalf("%s stdin: %v", in.name, err)
				}
				if out.String() != tc.want {
					t.Errorf("%s stdin: out = %q, want %q", in.name, out.String(), tc.want)
				}
				if in.stdin == nil && m.stdin.r != nil {
					t.Errorf("nil stdin: a read buffer was allocated")
				}
			}
		})
	}
}

// TestStdinBufferAllocatedOnFirstRead checks that a machine with input
// allocates its read buffer only when the program first reads.
func TestStdinBufferAllocatedOnFirstRead(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int main() { return getchar(); }`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog, Options{Stdin: strings.NewReader("A")})
	if m.stdin.r != nil {
		t.Fatal("New allocated the read buffer before any read")
	}
	code, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 'A' {
		t.Fatalf("getchar = %d, want %d", code, 'A')
	}
	if m.stdin.r == nil {
		t.Fatal("no read buffer after a read")
	}
}

// TestIntrinsicOverridesStdlibName checks that an intrinsic named like a
// C library function wins over the stdlib, both on the tree-walker's call
// path and through BuiltinNamed, which the bytecode VM resolves with.
func TestIntrinsicOverridesStdlibName(t *testing.T) {
	prog, err := minic.ParseAndCheck(`int main() { return strlen("abc"); }`)
	if err != nil {
		t.Fatal(err)
	}
	intrinsics := map[string]Builtin{
		"strlen": func(m *Machine, args []Value) (Value, error) { return IntVal(42), nil },
	}
	m := New(prog, Options{Intrinsics: intrinsics})
	code, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 42 {
		t.Fatalf("walker strlen = %d, want the intrinsic's 42", code)
	}
	impl, ok := m.BuiltinNamed("strlen")
	if !ok {
		t.Fatal("BuiltinNamed(strlen) not found")
	}
	if v, err := impl(m, nil); err != nil || v.I != 42 {
		t.Fatalf("BuiltinNamed(strlen) = %v, %v, want the intrinsic", v, err)
	}
	// Names no intrinsic overrides still resolve to the stdlib.
	if _, ok := m.BuiltinNamed("strcmp"); !ok {
		t.Fatal("BuiltinNamed(strcmp) not found")
	}
	if _, ok := m.BuiltinNamed("noSuchBuiltin"); ok {
		t.Fatal("BuiltinNamed found a name nobody defines")
	}
	// A machine without that intrinsic gets the C strlen.
	code, err = New(prog, Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 3 {
		t.Fatalf("stdlib strlen = %d, want 3", code)
	}
}

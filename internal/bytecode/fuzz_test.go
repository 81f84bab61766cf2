package bytecode_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/workload"
)

// fuzzBounds are deliberately small pool sizes so the fuzzer exercises
// both the accept and reject sides of every operand range check.
var fuzzBounds = bytecode.Bounds{
	NumRegs: 8, NumObjSlots: 2, Consts: 4, Strs: 2, Types: 2,
	Syms: 4, Allocs: 2, Ops: 4, Callees: 2,
}

// sampleCode compiles a small MiniC program and returns its main
// function's instruction stream — a realistic, verifiable seed.
func sampleCode(tb testing.TB) []bytecode.Instr {
	tb.Helper()
	prog, err := minic.ParseAndCheck(`
int main() {
	int i = 0;
	int s = 0;
	while (i < 10) {
		s = s + i;
		i = i + 1;
	}
	printf("%d\n", s);
	return 0;
}`)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	p, err := bytecode.Compile(prog)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return p.Fns[p.Main].Code
}

// FuzzBytecodeRoundTrip fuzzes the instruction codec and the verifier:
// any byte stream the decoder accepts must re-encode to the identical
// bytes and decode again to the identical instructions, and the verifier
// must render a verdict on it without panicking — the bytecode loader's
// safety contract for untrusted streams.
func FuzzBytecodeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytecode.EncodeInstrs(sampleCode(f)))
	f.Add(bytecode.EncodeInstrs([]bytecode.Instr{
		{Op: bytecode.OpConst, A: 0, B: 0},
		{Op: bytecode.OpAddI, A: 1, B: 0, C: 0},
		{Op: bytecode.OpBr, A: 1, B: 0, C: 3},
		{Op: bytecode.OpRet, A: 1},
	}))
	f.Add(bytecode.EncodeInstrs([]bytecode.Instr{
		{Op: bytecode.OpCharge, A: -1, B: 2},
		{Op: bytecode.OpJmp, A: 99},
	}))
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		code, err := bytecode.DecodeInstrs(data)
		if err != nil {
			return // malformed streams are the decoder's to reject
		}
		if len(code) != len(data)/17 {
			t.Fatalf("decoded %d instructions from %d bytes", len(code), len(data))
		}
		// The verifier must terminate with a verdict on anything decodable.
		_ = bytecode.VerifyCode(code, fuzzBounds)
		enc := bytecode.EncodeInstrs(code)
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode changed the stream\nin:  %x\nout: %x", data, enc)
		}
		code2, err := bytecode.DecodeInstrs(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(code, code2) {
			t.Fatalf("round trip changed instructions\nfirst:  %+v\nsecond: %+v", code, code2)
		}
	})
}

// FuzzCompile drives MiniC source through the whole lowering pipeline —
// parse and check, optimize, compile, verify. It must never panic:
// lowering is total, so a construct the compiler cannot lower comes back
// as an error, and whatever it does emit must pass the verifier. Seeds are
// the eight benchmarks' stage programs plus the minic parser corpus.
func FuzzCompile(f *testing.F) {
	for _, b := range workload.All() {
		for _, src := range []string{b.Job.MapSrc, b.Job.CombineSrc, b.Job.ReduceSrc} {
			if src != "" {
				f.Add(src)
			}
		}
	}
	corpus, err := filepath.Glob(filepath.Join("..", "minic", "testdata", "fuzz", "FuzzParser", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// Corpus files are "go test fuzz v1\nstring(<quoted source>)\n".
		_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minic.ParseAndCheck(src)
		if err != nil {
			return
		}
		ir.OptimizeProgram(prog)
		p, err := bytecode.Compile(prog)
		if err != nil {
			return
		}
		if err := bytecode.Verify(p); err != nil {
			t.Fatalf("verifier rejected compiler output: %v\nsource:\n%s", err, src)
		}
	})
}

// TestWriteFuzzCorpus (with -update) regenerates the checked-in seed
// corpus under testdata/fuzz/FuzzBytecodeRoundTrip from the same seeds
// the fuzz target Adds, so `make fuzz-smoke` starts from real programs
// even before the fuzzer's own cache warms up.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*update {
		t.Skip("corpus writer; run with -update to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBytecodeRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		bytecode.EncodeInstrs(sampleCode(t)),
		bytecode.EncodeInstrs([]bytecode.Instr{
			{Op: bytecode.OpConst, A: 0, B: 0},
			{Op: bytecode.OpAddI, A: 1, B: 0, C: 0},
			{Op: bytecode.OpBr, A: 1, B: 0, C: 3},
			{Op: bytecode.OpRet, A: 1},
		}),
		bytecode.EncodeInstrs([]bytecode.Instr{
			{Op: bytecode.OpCharge, A: -1, B: 2},
			{Op: bytecode.OpJmp, A: 99},
		}),
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

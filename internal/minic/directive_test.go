package minic

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseDirectiveValues reads every clause of well-formed directives.
func TestParseDirectiveValues(t *testing.T) {
	d, problems := ParseDirective("mapreduce mapper key(word) value(one) keylength(30) vallength(8) " +
		"kvpairs(48) blocks(8) threads(32) firstprivate(a, b) sharedro(M) texture(tbl)")
	if len(problems) != 0 {
		t.Fatalf("problems = %+v", problems)
	}
	want := &Directive{
		Key: "word", Value: "one", KeyLength: 30, ValLength: 8, KVPairs: 48, Blocks: 8, Threads: 32,
		FirstPrivate: []string{"a", "b"}, SharedRO: []string{"M"}, Texture: []string{"tbl"},
	}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("directive = %+v, want %+v", d, want)
	}
	if d.KindName() != "mapper" {
		t.Errorf("kind = %q", d.KindName())
	}
	d, problems = ParseDirective("  mapreduce combiner key(pk) value(pv) keyin(k) valuein(v)")
	if len(problems) != 0 || !d.Combiner || d.KeyIn != "k" || d.ValueIn != "v" || d.KindName() != "combiner" {
		t.Errorf("combiner = %+v, problems %+v", d, problems)
	}
}

// TestParseDirectiveProblems pins the code and message of every problem
// class, and that a defective directive still yields its readable values.
func TestParseDirectiveProblems(t *testing.T) {
	cases := []struct{ text, code, msg string }{
		{"omp parallel for", "HD101", `not a mapreduce pragma: "omp parallel for"`},
		{"mapreducex mapper key(k) value(v)", "HD101", `not a mapreduce pragma: "mapreducex mapper key(k) value(v)"`},
		{"mapreduce mapper key(k) value(v) #", "HD101", `unexpected character "#" in pragma "mapreduce mapper key(k) value(v) #"`},
		{"mapreduce mapper key(k value(v)", "HD101", `unbalanced parentheses in pragma "mapreduce mapper key(k value(v)"`},
		{"mapreduce mapper key(k) value(v) bogus", "HD101", `unknown clause "bogus" in pragma "mapreduce mapper key(k) value(v) bogus"`},
		{"mapreduce mapper(x) key(k) value(v)", "HD101", `clause "mapper" takes no arguments`},
		{"mapreduce mapper key() value(v)", "HD101", `clause "key" wants exactly one argument, got []`},
		{"mapreduce mapper key(k) value(v) threads(x)", "HD101", `clause "threads" wants an integer literal, got "x"`},
		{"mapreduce mapper key(k) value(v) threads(-1)", "HD101", `clause "threads" must be non-negative, got -1`},
		{"mapreduce mapper key(k) value(v) kvpairs(0)", "HD101", `clause "kvpairs" must be positive, got 0`},
		{"mapreduce mapper key(k) value(v) texture( , )", "HD101", `clause "texture" requires at least one variable`},
		{"mapreduce mapper mapper key(k) value(v)", "HD102", `duplicate clause "mapper" in pragma "mapreduce mapper mapper key(k) value(v)"`},
		{"mapreduce mapper key(k) value(v) sharedRO(t) texture(t)", "HD102", `variable "t" classified twice: sharedRO and texture`},
		{"mapreduce key(k) value(v)", "HD103", `pragma "mapreduce key(k) value(v)" has neither mapper nor combiner clause`},
		{"mapreduce mapper combiner key(k) value(v)", "HD103", `pragma "mapreduce mapper combiner key(k) value(v)" has more than one mapper/combiner clause`},
		{"mapreduce mapper key(k) value(v) valuein(x)", "HD105", "keyin/valuein are valid only on the combiner"},
		{"mapreduce combiner value(v) keyin(a) valuein(b)", "HD104", "combiner pragma missing required key clause"},
		{"mapreduce combiner key(k) value(v) keyin(a)", "HD104", "combiner pragma requires keyin and valuein clauses"},
	}
	for _, tc := range cases {
		_, problems := ParseDirective(tc.text)
		if len(problems) == 0 {
			t.Errorf("ParseDirective(%q): no problem, want %s %s", tc.text, tc.code, tc.msg)
			continue
		}
		if p := problems[0]; p.Code != tc.code || p.Msg != tc.msg {
			t.Errorf("ParseDirective(%q):\n got %s %s\nwant %s %s", tc.text, p.Code, p.Msg, tc.code, tc.msg)
		}
	}

	// A stage reports every problem it finds; later stages do not run.
	d, problems := ParseDirective("mapreduce combiner key(a, b) bogus(x)")
	if len(problems) != 2 || problems[0].Code != "HD101" || problems[1].Code != "HD101" {
		t.Errorf("problems = %+v, want two HD101", problems)
	}
	if !strings.Contains(problems[1].Fix, "valid clauses: mapper, combiner, key") {
		t.Errorf("unknown-clause fix = %q", problems[1].Fix)
	}
	if !d.Combiner || d.Key != "" {
		t.Errorf("defective directive values = %+v", d)
	}
}

func TestScanClausesStrayCharacter(t *testing.T) {
	got := ScanClauses("mapreduce mapper;key(k)\tsharedro(a,b)")
	want := []Clause{
		{Name: "mapper"}, {Name: ";", Bad: true}, {Name: "key", Args: []string{"k"}},
		{Name: "sharedRO", Args: []string{"a", "b"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ScanClauses = %+v, want %+v", got, want)
	}
}

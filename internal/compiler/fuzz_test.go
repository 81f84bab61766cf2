package compiler

import (
	"strings"
	"testing"

	"repro/internal/minic"
)

// fuzzMapper is a lint-clean record-reading mapper whose pragma line is
// `#pragma ` + text.
func fuzzMapper(text string) string {
	return `int main() {
	char *line; size_t n = 100; int read, k, v;
	line = (char*) malloc(100);
	#pragma ` + text + `
	while ((read = getline(&line, &n, stdin)) != -1) {
		k = 1; v = 1;
		printf("%d\t%d\n", k, v);
	}
	free(line);
	return 0;
}`
}

// FuzzParseDirective asserts the pragma-clause parser never panics, never
// returns a directive together with an error, and rejects exactly the
// directives the linter flags HD101..HD105: ParseDirective fails exactly
// when the shared minic checks report a problem, and, with the text as
// the pragma of a mapper program, exactly when Lint reports one of those
// codes.
func FuzzParseDirective(f *testing.F) {
	f.Add("#pragma mapreduce mapper key(k) value(v)")
	f.Add("#pragma mapreduce mapper key(word) value(one) keylength(30) kvpairs(48) blocks(8) threads(32)")
	f.Add("#pragma mapreduce combiner key(pk) keyin(k) value(pv) valuein(v) firstprivate(pk, pv)")
	f.Add("#pragma mapreduce mapper key(k) value(v) sharedRO(M) texture(tbl)")
	f.Add("#pragma mapreduce mapper key(k) key(k) value(v)")
	f.Add("#pragma mapreduce mapper key(k value(v)")
	f.Add("#pragma omp parallel for")
	f.Add("mapreduce mapper key(k) value(v) keylength(4)")
	f.Add("mapreduce mapper(x) key(k) value(v)")
	f.Add("mapreduce mapper key(k) value(v) firstprivate()")
	f.Add("mapreduce mapper key(k) value(v) keylength(0)")
	f.Add("mapreduce mapper key(k) value(v) blocks(0)")
	f.Add("mapreduce mapper key(k) value(v) firstprivate(n) sharedRO(n)")
	f.Fuzz(func(t *testing.T, text string) {
		d, err := ParseDirective(text)
		if err != nil && d != nil {
			t.Fatalf("both directive and error for %q: %v", text, err)
		}
		_, problems := minic.ParseDirective(text)
		if (err != nil) != (len(problems) > 0) {
			t.Fatalf("ParseDirective(%q) error = %v, shared checks report %v", text, err, problems)
		}
		for _, p := range problems {
			if p.Code < "HD101" || p.Code > "HD105" {
				t.Fatalf("shared checks report %s for %q, want HD101..HD105", p.Code, text)
			}
		}

		src := fuzzMapper(text)
		prog, perr := minic.ParseAndCheck(src)
		if perr != nil {
			return
		}
		sites := minic.FindPragmas(prog)
		if len(sites) != 1 || !sites[0].IsMapReduce() {
			return // the linter checks mapreduce pragmas only
		}
		_, err = ParseDirective(sites[0].Text)
		var flagged []string
		for _, dg := range Lint("fuzz.c", src) {
			if dg.Code >= "HD101" && dg.Code <= "HD105" {
				flagged = append(flagged, dg.String())
			}
		}
		if (err != nil) != (len(flagged) > 0) {
			t.Fatalf("pragma %q: translator error = %v, linter HD101..HD105 = [%s]",
				sites[0].Text, err, strings.Join(flagged, "; "))
		}
	})
}

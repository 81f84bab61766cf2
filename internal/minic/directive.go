package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the one grammar of `#pragma mapreduce` directives (paper
// Table 1). The translator and the linter both read directives through
// ParseDirective, so the translator rejects exactly the directives whose
// clause-level checks (HD101..HD105) the linter flags.

// clauseArity is the argument shape a clause accepts.
type clauseArity int

// Clause arities.
const (
	arityNone  clauseArity = iota // mapper/combiner: no arguments
	arityIdent                    // exactly one identifier
	arityInt                      // exactly one positive integer literal
	arityList                     // one or more identifiers
)

// clauseSpec describes one legal clause.
type clauseSpec struct {
	name  string
	arity clauseArity
	// singleton clauses may appear at most once per directive.
	singleton bool
	// required clauses must appear; a required combiner-only clause is
	// required on combiners only.
	required bool
	// combinerOnly clauses are valid on combiner regions only.
	combinerOnly bool
}

// clauseTable lists every legal clause, in the order diagnostics name them.
var clauseTable = []clauseSpec{
	{name: "mapper", arity: arityNone, singleton: true},
	{name: "combiner", arity: arityNone, singleton: true},
	{name: "key", arity: arityIdent, singleton: true, required: true},
	{name: "value", arity: arityIdent, singleton: true, required: true},
	{name: "keyin", arity: arityIdent, singleton: true, required: true, combinerOnly: true},
	{name: "valuein", arity: arityIdent, singleton: true, required: true, combinerOnly: true},
	{name: "keylength", arity: arityInt, singleton: true},
	{name: "vallength", arity: arityInt, singleton: true},
	{name: "kvpairs", arity: arityInt, singleton: true},
	{name: "blocks", arity: arityInt, singleton: true},
	{name: "threads", arity: arityInt, singleton: true},
	{name: "firstprivate", arity: arityList},
	{name: "sharedRO", arity: arityList},
	{name: "texture", arity: arityList},
}

func lookupClause(name string) (clauseSpec, bool) {
	for _, s := range clauseTable {
		if s.name == name {
			return s, true
		}
	}
	return clauseSpec{}, false
}

// Clause is one `name(arg, ...)` group of a directive line.
type Clause struct {
	Name string
	Args []string
	// Bad marks unbalanced parentheses or a stray character (then Name is
	// that character).
	Bad bool
}

// one returns the clause's single argument, or "" unless it has exactly one.
func (c Clause) one() string {
	if len(c.Args) == 1 {
		return c.Args[0]
	}
	return ""
}

// ScanClauses tokenizes the pragma text after its leading `mapreduce`
// word. It keeps duplicates and malformed pieces so checks can report
// them; `sharedro` is read as `sharedRO`.
func ScanClauses(text string) []Clause {
	text = strings.TrimPrefix(strings.TrimSpace(text), "mapreduce")
	var out []Clause
	i, n := 0, len(text)
	for i < n {
		for i < n && (text[i] == ' ' || text[i] == '\t' || text[i] == ',') {
			i++
		}
		if i >= n {
			break
		}
		start := i
		for i < n && isWordByte(text[i]) {
			i++
		}
		if i == start {
			out = append(out, Clause{Name: string(text[i]), Bad: true})
			i++
			continue
		}
		cl := Clause{Name: text[start:i]}
		if cl.Name == "sharedro" {
			cl.Name = "sharedRO"
		}
		for i < n && text[i] == ' ' {
			i++
		}
		if i < n && text[i] == '(' {
			depth := 1
			i++
			argStart := i
			for i < n && depth > 0 {
				switch text[i] {
				case '(':
					depth++
				case ')':
					depth--
				}
				if depth > 0 {
					i++
				}
			}
			if depth != 0 {
				cl.Bad = true
				cl.Args = splitArgs(text[argStart:])
				i = n
			} else {
				cl.Args = splitArgs(text[argStart:i])
				i++
			}
		}
		out = append(out, cl)
	}
	return out
}

func splitArgs(raw string) []string {
	var out []string
	for _, a := range strings.Split(raw, ",") {
		a = strings.TrimSpace(a)
		if a != "" {
			out = append(out, a)
		}
	}
	return out
}

func isWordByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// Directive holds the clause values of one `#pragma mapreduce` line.
type Directive struct {
	Combiner bool

	// Key / Value name the variables emitting KV pairs; KeyIn / ValueIn
	// name the variables receiving incoming pairs (combiner only).
	Key, Value     string
	KeyIn, ValueIn string

	// KeyLength / ValLength give emitted key/value lengths in bytes when
	// the variable types are not compiler-derivable; 0 means derive.
	KeyLength, ValLength int
	// KVPairs bounds the KV pairs emitted per record (0 = unknown).
	KVPairs int
	// Blocks / Threads tune the kernel launch geometry (0 = default).
	Blocks, Threads int

	// FirstPrivate lists variables initialized before the region;
	// SharedRO lists read-only variables (constant or texture memory);
	// Texture lists read-only arrays forced into texture memory.
	FirstPrivate, SharedRO, Texture []string
}

// KindName returns "mapper" or "combiner".
func (d *Directive) KindName() string {
	if d.Combiner {
		return "combiner"
	}
	return "mapper"
}

// DirectiveProblem is one clause-level defect of a directive.
type DirectiveProblem struct {
	Code string // HD101..HD105
	Msg  string
	Fix  string
}

// ParseDirective reads the text of a mapreduce pragma (the part after
// `#pragma`), e.g. `mapreduce mapper key(word) value(one) keylength(30)`.
// It returns every clause value it could read, even for a defective
// directive, together with the problems of the first check stage that
// finds any: HD101 malformed or unknown clauses, HD102 duplicates, HD103
// region kind, then HD105 combiner-only clauses on a mapper and HD104
// missing required clauses. A directive with problems must not be
// translated.
func ParseDirective(text string) (*Directive, []DirectiveProblem) {
	d := &Directive{}
	if t := strings.TrimSpace(text); !strings.HasPrefix(t, "mapreduce") ||
		(len(t) > len("mapreduce") && isWordByte(t[len("mapreduce")])) {
		return d, []DirectiveProblem{{Code: "HD101", Msg: fmt.Sprintf("not a mapreduce pragma: %q", text)}}
	}
	clauses := ScanClauses(text)
	for _, cl := range clauses {
		switch cl.Name {
		case "combiner":
			d.Combiner = true
		case "key":
			d.Key = cl.one()
		case "value":
			d.Value = cl.one()
		case "keyin":
			d.KeyIn = cl.one()
		case "valuein":
			d.ValueIn = cl.one()
		case "keylength":
			d.KeyLength = positiveInt(cl.one())
		case "vallength":
			d.ValLength = positiveInt(cl.one())
		case "kvpairs":
			d.KVPairs = positiveInt(cl.one())
		case "blocks":
			d.Blocks = positiveInt(cl.one())
		case "threads":
			d.Threads = positiveInt(cl.one())
		case "firstprivate":
			d.FirstPrivate = append(d.FirstPrivate, cl.Args...)
		case "sharedRO":
			d.SharedRO = append(d.SharedRO, cl.Args...)
		case "texture":
			d.Texture = append(d.Texture, cl.Args...)
		}
	}
	stages := []func(string, *Directive, []Clause) []DirectiveProblem{
		checkClauseSyntax, checkClauseDuplicates, checkRegionKind, checkRequiredClauses,
	}
	for _, stage := range stages {
		if probs := stage(text, d, clauses); len(probs) > 0 {
			return d, probs
		}
	}
	return d, nil
}

// positiveInt parses an integer clause argument, or returns 0 unless s is
// an integer literal greater than zero.
func positiveInt(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0
	}
	return n
}

// checkClauseSyntax reports HD101 for malformed, unknown and misshapen
// clauses.
func checkClauseSyntax(text string, _ *Directive, clauses []Clause) []DirectiveProblem {
	var out []DirectiveProblem
	bad := func(msg, fix string) {
		out = append(out, DirectiveProblem{Code: "HD101", Msg: msg, Fix: fix})
	}
	for _, cl := range clauses {
		spec, known := lookupClause(cl.Name)
		switch {
		case cl.Bad && !isWordByte(cl.Name[0]):
			bad(fmt.Sprintf("unexpected character %q in pragma %q", cl.Name, text), "")
		case cl.Bad:
			bad(fmt.Sprintf("unbalanced parentheses in pragma %q", text), "balance the clause's parentheses")
		case !known:
			names := make([]string, len(clauseTable))
			for i, s := range clauseTable {
				names[i] = s.name
			}
			bad(fmt.Sprintf("unknown clause %q in pragma %q", cl.Name, text),
				"valid clauses: "+strings.Join(names, ", "))
		case spec.arity == arityNone && len(cl.Args) > 0:
			bad(fmt.Sprintf("clause %q takes no arguments", cl.Name), "")
		case (spec.arity == arityIdent || spec.arity == arityInt) && len(cl.Args) != 1:
			bad(fmt.Sprintf("clause %q wants exactly one argument, got %v", cl.Name, cl.Args), "")
		case spec.arity == arityInt:
			n, err := strconv.Atoi(cl.Args[0])
			switch {
			case err != nil:
				bad(fmt.Sprintf("clause %q wants an integer literal, got %q", cl.Name, cl.Args[0]), "")
			case n < 0:
				bad(fmt.Sprintf("clause %q must be non-negative, got %d", cl.Name, n), "")
			case n == 0:
				bad(fmt.Sprintf("clause %q must be positive, got 0", cl.Name), "omit the clause to use the default")
			}
		case spec.arity == arityList && len(cl.Args) == 0:
			bad(fmt.Sprintf("clause %q requires at least one variable", cl.Name), "")
		}
	}
	return out
}

// checkClauseDuplicates reports HD102 for repeated singleton clauses and
// for a variable listed twice across firstprivate/sharedRO/texture.
func checkClauseDuplicates(text string, _ *Directive, clauses []Clause) []DirectiveProblem {
	var out []DirectiveProblem
	seen := map[string]bool{}
	classified := map[string]string{}
	for _, cl := range clauses {
		if spec, _ := lookupClause(cl.Name); spec.singleton {
			if seen[cl.Name] {
				out = append(out, DirectiveProblem{Code: "HD102",
					Msg: fmt.Sprintf("duplicate clause %q in pragma %q", cl.Name, text),
					Fix: "keep a single occurrence"})
			}
			seen[cl.Name] = true
			continue
		}
		for _, v := range cl.Args {
			if prev, ok := classified[v]; ok {
				out = append(out, DirectiveProblem{Code: "HD102",
					Msg: fmt.Sprintf("variable %q classified twice: %s and %s", v, prev, cl.Name),
					Fix: "list each variable in at most one classification clause"})
				continue
			}
			classified[v] = cl.Name
		}
	}
	return out
}

// checkRegionKind reports HD103 unless exactly one of mapper/combiner is
// present.
func checkRegionKind(text string, _ *Directive, clauses []Clause) []DirectiveProblem {
	kinds := 0
	for _, cl := range clauses {
		if cl.Name == "mapper" || cl.Name == "combiner" {
			kinds++
		}
	}
	if kinds == 1 {
		return nil
	}
	msg := fmt.Sprintf("pragma %q has neither mapper nor combiner clause", text)
	if kinds > 1 {
		msg = fmt.Sprintf("pragma %q has more than one mapper/combiner clause", text)
	}
	return []DirectiveProblem{{Code: "HD103", Msg: msg,
		Fix: "mark the region as exactly one of mapper or combiner"}}
}

// checkRequiredClauses reports HD105 when a mapper carries combiner-only
// clauses and, failing that, HD104 for missing required clauses. The
// combiner-only clauses (the incoming key/value pair) are reported as one
// group.
func checkRequiredClauses(_ string, d *Directive, clauses []Clause) []DirectiveProblem {
	present := map[string]bool{}
	for _, cl := range clauses {
		present[cl.Name] = true
	}
	var group []string
	groupUsed, groupMissing := false, false
	for _, s := range clauseTable {
		if s.combinerOnly {
			group = append(group, s.name)
			groupUsed = groupUsed || present[s.name]
			groupMissing = groupMissing || (s.required && !present[s.name])
		}
	}
	if !d.Combiner && groupUsed {
		return []DirectiveProblem{{Code: "HD105",
			Msg: strings.Join(group, "/") + " are valid only on the combiner",
			Fix: "remove the clause or mark the region combiner"}}
	}
	var out []DirectiveProblem
	for _, s := range clauseTable {
		if s.required && !s.combinerOnly && !present[s.name] {
			out = append(out, DirectiveProblem{Code: "HD104",
				Msg: fmt.Sprintf("%s pragma missing required %s clause", d.KindName(), s.name),
				Fix: fmt.Sprintf("add %s(<variable>)", s.name)})
		}
	}
	if d.Combiner && groupMissing {
		out = append(out, DirectiveProblem{Code: "HD104",
			Msg: "combiner pragma requires " + strings.Join(group, " and ") + " clauses",
			Fix: "add " + strings.Join(group, "(<variable>) ") + "(<variable>)"})
	}
	return out
}

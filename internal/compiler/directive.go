// Package compiler implements the HeteroDoop source-to-source translator
// (paper §4): it parses `#pragma mapreduce` directives (Table 1), extracts
// map and combine kernel regions, classifies variables into GPU memory
// spaces per Algorithm 1, substitutes C stdio calls with GPU runtime
// intrinsics (getline→getRecord, printf→emitKV/storeKV, scanf→getKV), marks
// vectorization opportunities, and emits a CUDA-flavoured rendering of the
// generated kernels for inspection.
package compiler

import (
	"fmt"

	"repro/internal/minic"
)

// RegionKind distinguishes the two directive-annotated region types.
type RegionKind int

// Region kinds.
const (
	RegionMapper RegionKind = iota
	RegionCombiner
)

func (k RegionKind) String() string {
	if k == RegionMapper {
		return "mapper"
	}
	return "combiner"
}

// Directive is a parsed `#pragma mapreduce ...` annotation (Table 1 of the
// paper): the region kind plus the clause values minic reads.
type Directive struct {
	Kind RegionKind
	minic.Directive
}

// ParseDirective parses the text of a mapreduce pragma (the part after
// `#pragma`), e.g. `mapreduce mapper key(word) value(one) keylength(30)`.
// It rejects exactly the directives the linter flags HD101..HD105, with
// the first problem's message.
func ParseDirective(text string) (*Directive, error) {
	md, problems := minic.ParseDirective(text)
	if len(problems) > 0 {
		return nil, fmt.Errorf("compiler: %s", problems[0].Msg)
	}
	d := &Directive{Directive: *md}
	if md.Combiner {
		d.Kind = RegionCombiner
	}
	return d, nil
}

// Package lint is wirelint: a suite of static analyzers that
// mechanically enforce the simulator's determinism, hot-path, and
// locking invariants. The compiler cannot see these rules — that every
// cost is charged in virtual time, that exported orderings never depend
// on map iteration, that annotated hot paths stay allocation-free, and
// that every lock acquisition is released on every path — so before
// this package they were guarded only by runtime golden-digest and
// AllocsPerRun tests, which catch violations late and far from the
// offending line.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, fixture tests driven by `// want`
// comments) but is self-contained on the standard library: packages are
// type-checked from source with go/types, resolving module-internal
// imports recursively and standard-library imports through
// go/importer's source importer. When the x/tools dependency becomes
// vendorable the analyzers can move onto it (and gain `go vet
// -vettool` support, whose unitchecker protocol needs export-data
// importers) without changing their Run functions.
//
// Two comment directives steer the suite:
//
//	//wirelint:allow <rule>[,<rule>...] <reason>
//	//wirecap:hotpath
//
// The first suppresses findings of the named rules on its own line (or,
// when it stands alone on a line, on the line that follows) and must
// carry a reason — a missing reason, an unknown rule name, and a
// directive that suppresses nothing are themselves findings, so the
// exception list can only shrink by being read. The second, placed in a
// function's doc comment, opts that function into the hotpath
// analyzer's allocation checks.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one rule: a name (used in //wirelint:allow
// directives and -rules selections), documentation, and exactly one of
// two run functions. Run is invoked once per loaded package and sees a
// single type-checked unit; RunModule is invoked once per module with
// the whole package set and the shared call graph — the interprocedural
// analyzers (hotpathflow, determinism, conservation) and deadexport use
// this form.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	PkgPath  string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos attributed to the pass's analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     pos,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A ModulePass carries one module analyzer's view of the whole loaded
// module: every analysis unit plus the shared call graph (built once
// and reused across module analyzers).
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module
	Graph    *CallGraph

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos attributed to the pass's
// analyzer. The runner routes it to the package owning pos's file, so
// //wirelint:allow directives apply exactly as they do for per-package
// analyzers.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     pos,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is a raw finding before directive filtering.
type Diagnostic struct {
	Pos     token.Pos
	Rule    string
	Message string
}

// A Finding is a resolved diagnostic: positioned, and either live or
// suppressed by an //wirelint:allow directive whose reason it carries.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	Allowed bool   `json:"allowed,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Rule)
}

// Analyzers returns the full wirelint suite in reporting order: the
// five per-package analyzers followed by the four module-wide ones
// (three interprocedural passes and deadexport).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer, MaporderAnalyzer, HotpathAnalyzer, LockAnalyzer, ConcurrencyAnalyzer,
		HotpathFlowAnalyzer, DeterminismAnalyzer, ConservationAnalyzer, DeadexportAnalyzer,
	}
}

// KnownRules returns the rule names valid in //wirelint:allow
// directives: every analyzer plus the directive meta-rule itself.
func KnownRules() map[string]bool {
	rules := map[string]bool{RuleDirective: true}
	for _, a := range Analyzers() {
		rules[a.Name] = true
	}
	return rules
}

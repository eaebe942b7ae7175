package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ConcurrencyAnalyzer fences raw concurrency out of simulator code
// (DESIGN.md §10): every simulation runs on one goroutine, and the only
// goroutines are domain.ForEach's workers, which fan out independent
// runs that share no state. A naked `go` statement or an ad-hoc channel
// anywhere else reintroduces scheduling nondeterminism that no golden
// digest can pin down, so goroutine launches, channel makes, sends,
// receives, and select statements are banned outside
// internal/vtime/domain (and _test.go files, whose goroutines are the
// test harness's business). Legitimate exceptions — a signal handler in
// a cmd, say — carry a //wirelint:allow concurrency directive with a
// reason.
var ConcurrencyAnalyzer = &Analyzer{
	Name: "concurrency",
	Doc:  "forbid goroutines and channel operations outside the domain runtime",
	Run:  runConcurrency,
}

// concurrencyExemptPkg is the one package allowed to spawn goroutines
// and own channels: the home of the ForEach worker pool.
const concurrencyExemptPkg = "repro/internal/vtime/domain"

func runConcurrency(pass *Pass) error {
	if pass.PkgPath == concurrencyExemptPkg {
		return nil
	}
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		// A select's comm clauses are sends/receives by definition; the
		// select finding covers them, so they are not re-reported.
		comm := make(map[ast.Node]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CommClause); ok && c.Comm != nil {
				comm[c.Comm] = true
				if e, ok := c.Comm.(*ast.ExprStmt); ok {
					comm[e.X] = true
				}
				if a, ok := c.Comm.(*ast.AssignStmt); ok && len(a.Rhs) == 1 {
					comm[a.Rhs[0]] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement outside the domain runtime; fan independent runs out through domain.ForEach so execution stays deterministic")
			case *ast.SendStmt:
				if comm[n] {
					return true
				}
				pass.Reportf(n.Pos(),
					"channel send outside the domain runtime; simulation actors message each other through domain mailboxes (Tx.Send)")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !comm[n] {
					pass.Reportf(n.Pos(),
						"channel receive outside the domain runtime; deliveries arrive through domain ports, not raw channels")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select statement outside the domain runtime; nondeterministic case choice breaks golden digests")
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						pass.Reportf(n.Pos(),
							"range over channel outside the domain runtime; deliveries arrive through domain ports, not raw channels")
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
					if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
						if t := pass.Info.TypeOf(n.Args[0]); t != nil {
							if _, ok := t.Underlying().(*types.Chan); ok {
								pass.Reportf(n.Pos(),
									"make(chan) outside the domain runtime; bounded deterministic mailboxes live in internal/vtime/domain")
							}
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// DeadexportAnalyzer keeps internal/ free of API nothing calls
// (DESIGN.md §10): an exported function, method or package-level
// variable declared under internal/ must be used by some non-test file
// of the module. Code whose only callers are tests is either deleted,
// unexported (when its tests live in the same package), or kept with a
// //wirelint:allow deadexport directive naming the test in another
// package that uses it as an oracle.
//
// Uses are keyed by package path, receiver and name rather than by
// object identity, because the loader type-checks each package once as
// an analysis unit and again as an import unit. A method also counts
// as used when its type satisfies an interface that declares it, and
// the methods the standard library reaches by reflection (String,
// Error, MarshalJSON, UnmarshalJSON) always count. A nested module the
// loader skips (the frozen benchmark under cmd/wirebench/_src) is
// parsed without type-checking, and every selector name it uses counts
// as used. wirecap/ is public API and constants are complete sets on
// purpose, so neither is reported.
var DeadexportAnalyzer = &Analyzer{
	Name:      "deadexport",
	Doc:       "report exported functions, methods and variables in internal/ that no non-test code uses",
	RunModule: runDeadexport,
}

// reflectedMethods are reached through fmt, errors and encoding/json
// rather than through a call the type checker can see.
var reflectedMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

func runDeadexport(pass *ModulePass) error {
	m := pass.Module
	frozen, err := nestedModuleSelectors(m.Root)
	if err != nil {
		return err
	}
	used := make(map[string]bool)
	ifaces := newIfaceIndex()
	imports := make(map[string]*types.Package)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if testFile(m.Fset, f.Pos()) {
				continue
			}
			for _, spec := range f.Imports {
				if pn := pkg.Info.PkgNameOf(spec); pn != nil {
					ifaces.addImport(pn.Imported(), imports)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if k := objKey(pkg.Info.Uses[id]); k != "" {
						used[k] = true
					}
				}
				if e, ok := n.(ast.Expr); ok {
					if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil {
						ifaces.add(tv.Type)
					}
				}
				return true
			})
		}
	}

	internal := m.Path + "/internal/"
	for _, pkg := range m.Pkgs {
		if !strings.HasPrefix(pkg.PkgPath, internal) || strings.HasSuffix(pkg.PkgPath, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			if testFile(m.Fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				for _, id := range exportedNames(decl) {
					obj := pkg.Info.Defs[id]
					if obj == nil || used[objKey(obj)] || frozen[id.Name] {
						continue
					}
					if fn, ok := obj.(*types.Func); ok && ifaces.satisfied(fn, imports[pkg.PkgPath]) {
						continue
					}
					pass.Reportf(id.Pos(), "%s is exported but no non-test code uses it: delete or unexport it", displayName(obj))
				}
			}
		}
	}
	return nil
}

// exportedNames lists the exported functions, methods and package-level
// variables a top-level declaration introduces.
func exportedNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		if d.Tok != token.VAR {
			return nil
		}
		var out []*ast.Ident
		for _, spec := range d.Specs {
			for _, id := range spec.(*ast.ValueSpec).Names {
				if id.IsExported() {
					out = append(out, id)
				}
			}
		}
		return out
	}
	return nil
}

// objKey names a function, method or package-level variable the same
// way in every unit that sees it; other objects yield "".
func objKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		return funcKey(o)
	case *types.Var:
		if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			return o.Pkg().Path() + "." + o.Name()
		}
	}
	return ""
}

func displayName(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		name = shortName(fn)
	}
	return obj.Pkg().Name() + "." + name
}

// An ifaceIndex holds every interface type the module's non-test code
// can see, indexed by the names of the methods it declares.
type ifaceIndex struct {
	byMethod map[string][]*types.Interface
	seen     map[*types.Interface]bool
	pkgs     map[*types.Package]bool
}

func newIfaceIndex() *ifaceIndex {
	return &ifaceIndex{
		byMethod: make(map[string][]*types.Interface),
		seen:     make(map[*types.Interface]bool),
		pkgs:     make(map[*types.Package]bool),
	}
}

func (x *ifaceIndex) add(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || x.seen[it] {
		return
	}
	x.seen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		x.byMethod[name] = append(x.byMethod[name], it)
	}
}

// addImport indexes the top-level interfaces of a package a non-test
// file imports, and of everything it imports in turn, and records the
// module's import units by path. An analysis unit's own interfaces are
// indexed from its type expressions instead, which leaves out those
// declared in test files.
func (x *ifaceIndex) addImport(pkg *types.Package, units map[string]*types.Package) {
	if x.pkgs[pkg] {
		return
	}
	x.pkgs[pkg] = true
	units[pkg.Path()] = pkg
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			x.add(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		x.addImport(imp, units)
	}
}

// satisfied reports whether fn is a method whose receiver type
// implements an interface declaring fn's name, or one reached by
// reflection. The receiver is tried both as declared and as the import
// unit's copy of the same type, since an interface declared in another
// package refers to the import unit's types.
func (x *ifaceIndex) satisfied(fn *types.Func, unit *types.Package) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if reflectedMethods[fn.Name()] {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	cands := []types.Type{named}
	if unit != nil {
		if tn, ok := unit.Scope().Lookup(named.Obj().Name()).(*types.TypeName); ok {
			cands = append(cands, tn.Type())
		}
	}
	for _, it := range x.byMethod[fn.Name()] {
		for _, c := range cands {
			if types.Implements(c, it) || types.Implements(types.NewPointer(c), it) {
				return true
			}
		}
	}
	return false
}

// nestedModuleSelectors parses every Go file of the modules nested
// under root (directories below root holding their own go.mod, which
// the loader skips) and returns the selector names they use.
func nestedModuleSelectors(root string) (map[string]bool, error) {
	names := make(map[string]bool)
	fset := token.NewFileSet()
	var nested []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				nested = append(nested, path)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !within(path, nested) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				names[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	return names, err
}

func within(path string, roots []string) bool {
	for _, r := range roots {
		if strings.HasPrefix(path, r+string(filepath.Separator)) {
			return true
		}
	}
	return false
}

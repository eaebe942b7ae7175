package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one analysis unit: a type-checked set of files from a
// single directory. Test files are analyzed together with the package
// they test; an external _test package in the same directory forms a
// second unit.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Src     map[string][]byte // filename -> raw source, for directive layout
	Types   *types.Package
	Info    *types.Info
}

// A Module is a loaded module tree ready for analysis.
type Module struct {
	Root string
	Path string
	Fset *token.FileSet
	Pkgs []*Package
}

type loader struct {
	root    string
	modpath string
	fset    *token.FileSet
	std     types.ImporterFrom
	units   map[string]*types.Package // import units: non-test files only
	loading map[string]bool
	src     map[string][]byte
}

// LoadModule parses and type-checks every package under root (the
// directory containing go.mod), resolving module-internal imports from
// source and standard-library imports through the compiler's source
// importer. Directories named testdata and hidden directories are
// skipped, matching the go tool.
func LoadModule(root string) (*Module, error) {
	modpath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		root:    root,
		modpath: modpath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		units:   make(map[string]*types.Package),
		loading: make(map[string]bool),
		src:     make(map[string][]byte),
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modpath, Fset: fset}
	for _, dir := range dirs {
		pkgs, err := l.analysisUnits(dir)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkgs...)
	}
	return m, nil
}

func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modpath, nil
	}
	return l.modpath + "/" + filepath.ToSlash(rel), nil
}

func (l *loader) parseDir(dir string) (nonTest, inTest, extTest []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var base string
	var parsed []*ast.File
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fn := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, nil, nil, err
		}
		l.src[fn] = src
		f, err := parser.ParseFile(l.fset, fn, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		parsed = append(parsed, f)
		names = append(names, e.Name())
		if !strings.HasSuffix(e.Name(), "_test.go") && base == "" {
			base = f.Name.Name
		}
	}
	for i, f := range parsed {
		switch {
		case !strings.HasSuffix(names[i], "_test.go"):
			nonTest = append(nonTest, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return nonTest, inTest, extTest, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func (l *loader) check(pkgPath string, files []*ast.File, info *types.Info) (*types.Package, error) {
	conf := types.Config{Importer: (*loaderImporter)(l)}
	pkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	return pkg, nil
}

// analysisUnits builds the unit(s) to analyze for one directory.
func (l *loader) analysisUnits(dir string) ([]*Package, error) {
	nonTest, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	pkgPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	var out []*Package
	if len(nonTest)+len(inTest) > 0 {
		files := append(append([]*ast.File(nil), nonTest...), inTest...)
		info := newInfo()
		pkg, err := l.check(pkgPath, files, info)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{PkgPath: pkgPath, Dir: dir, Files: files, Src: l.src, Types: pkg, Info: info})
	}
	if len(extTest) > 0 {
		info := newInfo()
		pkg, err := l.check(pkgPath+"_test", extTest, info)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{PkgPath: pkgPath + "_test", Dir: dir, Files: extTest, Src: l.src, Types: pkg, Info: info})
	}
	return out, nil
}

// importUnit type-checks the non-test files of a module-internal
// package for use as an import, caching by path and detecting cycles.
func (l *loader) importUnit(pkgPath string) (*types.Package, error) {
	if pkg, ok := l.units[pkgPath]; ok {
		return pkg, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, l.modpath), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	nonTest, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(nonTest) == 0 {
		return nil, fmt.Errorf("lint: no Go files for import %q in %s", pkgPath, dir)
	}
	pkg, err := l.check(pkgPath, nonTest, newInfo())
	if err != nil {
		return nil, err
	}
	l.units[pkgPath] = pkg
	return pkg, nil
}

// loaderImporter adapts loader to types.ImporterFrom: module-internal
// paths resolve from source within the module, everything else goes to
// the standard library's source importer.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modpath || strings.HasPrefix(path, l.modpath+"/") {
		return l.importUnit(path)
	}
	return l.std.ImportFrom(path, dir, 0)
}

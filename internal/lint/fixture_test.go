package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runFixture loads dir as a standalone fixture package (or, when dir
// holds a go.mod, as a fixture module of several packages), runs the
// given analyzers (plus directive processing) through the same pipeline as
// cmd/wirelint, and compares the live findings against `// want "rx"`
// expectations in the fixture source — the analysistest contract. Each
// quoted regular expression after want must match a finding message on
// that line; findings with no matching want, and wants with no matching
// finding, fail the test.
func runFixture(t *testing.T, dir string, azs ...*Analyzer) {
	t.Helper()
	load := func() (*Module, error) { return loadDir(dir, "fix") }
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
		load = func() (*Module, error) { return LoadModule(dir) }
	}
	m, err := load()
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings, _, err := Run(m, azs)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	wants := parseWants(t, m)
	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if matched[i] || f.File != w.file || f.Line != w.line {
				continue
			}
			if w.rx.MatchString(f.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.rx)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("%s: unexpected finding: %s", dir, f)
		}
	}
}

type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

func parseWants(t *testing.T, m *Module) []want {
	t.Helper()
	var out []want
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := m.Fset.Position(c.Slash)
					rxs, err := parseWantPatterns(c.Text[idx+len("// want "):])
					if err != nil {
						t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
					}
					for _, rx := range rxs {
						out = append(out, want{file: relPath(m.Root, pos.Filename), line: pos.Line, rx: rx})
					}
				}
			}
		}
	}
	return out
}

func parseWantPatterns(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected quoted pattern at %q", s)
		}
		// Find the end of this Go-quoted string.
		var lit string
		var rest string
		if s[0] == '`' {
			end := strings.Index(s[1:], "`")
			if end < 0 {
				return nil, fmt.Errorf("unterminated pattern at %q", s)
			}
			lit, rest = s[:end+2], s[end+2:]
		} else {
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				return nil, fmt.Errorf("unterminated pattern at %q", s)
			}
			lit, rest = s[:end+1], s[end+1:]
		}
		unq, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("unquoting %s: %w", lit, err)
		}
		rx, err := regexp.Compile(unq)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", lit, err)
		}
		out = append(out, rx)
		s = strings.TrimSpace(rest)
	}
	return out, nil
}

// loadDir type-checks a single directory as one standalone
// single-package module — the fixture loader behind the analyzer
// tests. Fixture imports are limited to the standard library.
func loadDir(dir, pkgPath string) (*Module, error) {
	fset := token.NewFileSet()
	l := &loader{
		root:    dir,
		modpath: pkgPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		units:   make(map[string]*types.Package),
		loading: make(map[string]bool),
		src:     make(map[string][]byte),
	}
	nonTest, inTest, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	files := append(nonTest, inTest...)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := newInfo()
	pkg, err := l.check(pkgPath, files, info)
	if err != nil {
		return nil, err
	}
	return &Module{Root: dir, Path: pkgPath, Fset: fset, Pkgs: []*Package{
		{PkgPath: pkgPath, Dir: dir, Files: files, Src: l.src, Types: pkg, Info: info},
	}}, nil
}

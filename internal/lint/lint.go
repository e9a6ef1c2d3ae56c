// Package lint is a self-contained static-analysis framework for the
// project-specific invariants that ordinary vet cannot see: executor
// cancellation polling (cancelcheck), scheduler/serving wait-point
// cancellability (waitcheck) and error-code hygiene (xqerrcheck).
//
// It deliberately works at the syntax level only (go/parser + go/ast,
// no type checking): every rule it enforces is expressible over names
// and shapes, which keeps the linter dependency-free and fast enough
// to run on every test invocation. The cost is that the analyzers are
// conservative pattern matchers — they are tuned so that the idioms
// this repository actually uses pass, and the mistakes the rules exist
// to catch do not.
//
// Command mxqlint (cmd/mxqlint) runs every analyzer over the module;
// RunFixture drives an analyzer over a testdata directory annotated
// with `// want "regex"` comments, analysistest-style.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed directory: all non-test files of the package
// that lives there, with comments attached.
type Package struct {
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
}

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a parsed package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// All returns every analyzer mxqlint ships, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{CancelCheck, AllocCheck, WaitCheck, XQErrCheck, RuleCheck}
}

// LoadDir parses every .go file directly inside dir into one Package.
// Test files (_test.go) are skipped unless includeTests is set; a dir
// with no eligible files yields (nil, nil). When files disagree on the
// package name (main + tooling stubs), the majority name wins so the
// analyzers' package gates stay meaningful.
func LoadDir(dir string, includeTests bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	p := &Package{Dir: dir, Fset: fset}
	names := map[string]int{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
		names[f.Name.Name]++
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	for n, c := range names {
		if c > names[p.Name] || (c == names[p.Name] && n < p.Name) || p.Name == "" {
			p.Name = n
		}
	}
	return p, nil
}

// Dirs lists every directory under root that holds .go files, skipping
// VCS metadata, testdata trees (lint fixtures contain deliberate
// violations), and hidden directories. Paths come back sorted so runs
// are deterministic.
func Dirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := filepath.Base(path)
			if base == "testdata" || (strings.HasPrefix(base, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasLoop reports whether the function body contains any for/range
// statement, including inside function literals (a loop handed to a
// parallel driver is still this function's loop).
func hasLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// exemptReason returns the reason text of a `// <marker> <reason>`
// annotation in the declaration's doc comment group, or ("", false).
// A bare marker with no reason does not count: exemptions must say why.
func exemptReason(doc *ast.CommentGroup, marker string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, marker); ok {
			reason := strings.TrimSpace(rest)
			if reason != "" {
				return reason, true
			}
		}
	}
	return "", false
}

// diag builds a Diagnostic at a node's position.
func (p *Package) diag(analyzer string, n ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Fset.Position(n.Pos()),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

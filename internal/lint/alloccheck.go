package lint

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
)

// AllocCheck enforces the executor's memory-governance contract, the
// allocation-side twin of cancelcheck: every operator that materializes
// rows — ralg's exec* implementations and scj's parallel step drivers —
// must account its allocations against the execution's memory budget,
// either directly (charge / chargeTable / chargeFunc / Charge) or by
// calling — transitively, within the package — a function that does.
// Serial scj kernels are exempt by construction: they all write through
// the block emitter, which charges per block, and the ralg operator that
// invoked them charges the widened columns.
//
// A function whose allocations are provably O(columns) bookkeeping —
// zero-copy column rearrangement, not row materialization — may opt out
// with an explanatory annotation in its doc comment:
//
//	// alloccheck:exempt <reason>
//
// The reason is mandatory; a bare marker still fires.
//
// In ralg, column memory comes from the execution's arena: the arena
// calls (dirty, zeroed, grown, settle, carve) are materializing sites
// like make and append, and outside arena*.go a make of a pointer-free
// column element type ([]int64, []int32, []float64, []uint64, []bool,
// []xqt.Kind) whose size is not a literal is flagged wherever it
// appears — a site that slipped back to the Go allocator — unless its
// function carries the annotation.
var AllocCheck = &Analyzer{
	Name: "alloccheck",
	Doc:  "row-materializing operators must charge the memory budget (charge/chargeTable/Charge), reach a charge via same-package calls, or carry an alloccheck:exempt annotation; ralg column vectors come from the arena, not from make",
	Run:  runAllocCheck,
}

// allocMarkers are the identifiers whose presence means the function
// participates in memory accounting: the MemBudget entry points and the
// executor's charging helpers.
var allocMarkers = map[string]bool{
	"charge":      true,
	"chargeTable": true,
	"chargeFunc":  true,
	"Charge":      true,
}

// scjParDriverRE matches scj's parallel step drivers — the functions
// that own their chunks' output buffers and therefore the charging duty.
var scjParDriverRE = regexp.MustCompile(`^par[A-Z]`)

func runAllocCheck(p *Package) []Diagnostic {
	if p.Name != "ralg" && p.Name != "scj" {
		return nil
	}

	type funcInfo struct {
		decl   *ast.FuncDecl
		direct bool
		calls  map[string]bool
	}
	fns := map[string]*funcInfo{}
	var order []string
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			info := &funcInfo{decl: fd, calls: map[string]bool{}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Ident:
					if allocMarkers[x.Name] {
						info.direct = true
					}
				case *ast.SelectorExpr:
					if allocMarkers[x.Sel.Name] {
						info.direct = true
					}
					info.calls[x.Sel.Name] = true
				case *ast.CallExpr:
					if id, ok := x.Fun.(*ast.Ident); ok {
						info.calls[id.Name] = true
					}
				}
				return true
			})
			fns[fd.Name.Name] = info
			order = append(order, fd.Name.Name)
		}
	}

	reaches := func(name string) bool {
		seen := map[string]bool{}
		queue := []string{name}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if seen[n] {
				continue
			}
			seen[n] = true
			info := fns[n]
			if info == nil {
				continue
			}
			if info.direct {
				return true
			}
			for c := range info.calls {
				queue = append(queue, c)
			}
		}
		return false
	}

	var diags []Diagnostic
	for _, name := range order {
		info := fns[name]
		_, exempt := exemptReason(info.decl.Doc, "alloccheck:exempt")
		file := filepath.Base(p.Fset.Position(info.decl.Pos()).Filename)
		if p.Name == "ralg" && !exempt && !strings.HasPrefix(file, "arena") {
			for _, call := range columnMakes(info.decl.Body) {
				diags = append(diags, p.diag("alloccheck", call,
					"%s: row-sized make of a pointer-free column type outside arena.go; take it from the arena (dirty/zeroed) or annotate // alloccheck:exempt <reason>", name))
			}
		}
		if !isAllocCandidate(p.Name, info.decl) {
			continue
		}
		if !hasAlloc(info.decl.Body) {
			continue
		}
		if exempt || reaches(name) {
			continue
		}
		diags = append(diags, p.diag("alloccheck", info.decl,
			"%s: materializing allocation never charges the memory budget; charge/chargeTable the output or annotate // alloccheck:exempt <reason>", name))
	}
	return diags
}

// isAllocCandidate decides whether a function is bound by the memory
// accounting contract: in ralg, the exec* operator implementations; in
// scj, the parallel step drivers (serial kernels are charged by their
// callers, where output sizes are known).
func isAllocCandidate(pkg string, fd *ast.FuncDecl) bool {
	switch pkg {
	case "ralg":
		return execNameRE.MatchString(fd.Name.Name)
	case "scj":
		if !scjParDriverRE.MatchString(fd.Name.Name) {
			return false
		}
		for _, field := range fd.Type.Params.List {
			if star, ok := field.Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Stats" {
					return true
				}
			}
		}
	}
	return false
}

// arenaCalls are ralg's column-memory entry points (arena.go).
var arenaCalls = map[string]bool{"dirty": true, "zeroed": true, "grown": true, "settle": true, "carve": true}

// calleeName returns the called identifier of f(...) or f[T](...).
func calleeName(call *ast.CallExpr) string {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	if id, ok := fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// hasAlloc reports whether the body contains a materializing allocation:
// a make, append or arena call, including inside function literals.
func hasAlloc(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := calleeName(call); name == "make" || name == "append" || arenaCalls[name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// columnElems are the pointer-free element types of column vectors.
var columnElems = map[string]bool{"int64": true, "int32": true, "float64": true, "uint64": true, "bool": true, "Kind": true}

// columnMakes returns the make([]E, n, …) calls in body whose element
// type is a column element type and whose size is not all literals.
func columnMakes(body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || calleeName(call) != "make" || len(call.Args) < 2 {
			return true
		}
		arr, ok := call.Args[0].(*ast.ArrayType)
		if !ok || arr.Len != nil {
			return true
		}
		elem := arr.Elt
		if sel, ok := elem.(*ast.SelectorExpr); ok { // xqt.Kind
			elem = sel.Sel
		}
		if id, ok := elem.(*ast.Ident); !ok || !columnElems[id.Name] {
			return true
		}
		for _, size := range call.Args[1:] {
			if _, lit := size.(*ast.BasicLit); !lit {
				out = append(out, call)
				break
			}
		}
		return true
	})
	return out
}

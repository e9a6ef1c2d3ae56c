package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// AllocCheck keeps ralg's row-sized memory behind the execution's arena
// (internal/ralg/arena.go), which is where the memory budget is metered:
// carve charges every request before it serves it, so an operator that
// takes its columns and lists from dirty/zeroed/grown/settle cannot
// allocate rows the budget does not see. The one way around the meter is
// the Go allocator, so outside arena*.go a make of a column element type
// ([]int64, []int32, []float64, []uint64, []bool, []string, []xqt.Kind)
// whose size is not a literal is flagged wherever it appears. Row-sized
// Go maps and []xqt.Item cannot come from the arena; the few sites that
// need one charge it by hand (Exec.charge).
var AllocCheck = &Analyzer{
	Name: "alloccheck",
	Doc:  "ralg column vectors come from the metered arena, not from make",
	Run:  runAllocCheck,
}

func runAllocCheck(p *Package) []Diagnostic {
	if p.Name != "ralg" {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		if strings.HasPrefix(filepath.Base(p.Fset.Position(f.Pos()).Filename), "arena") {
			continue
		}
		for _, call := range columnMakes(f) {
			diags = append(diags, p.diag("alloccheck", call,
				"row-sized make of a column type outside arena.go bypasses the memory budget; take it from the arena (dirty/zeroed)"))
		}
	}
	return diags
}

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

// columnElems are the element types of column vectors.
var columnElems = map[string]bool{"int64": true, "int32": true, "float64": true, "uint64": true, "bool": true, "string": true, "Kind": true}

// columnMakes returns the make([]E, n, …) calls in file whose element
// type is a column element type and whose size is not all literals.
func columnMakes(file *ast.File) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(file, func(n ast.Node) bool {
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

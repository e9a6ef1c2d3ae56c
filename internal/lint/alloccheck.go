package lint

import (
	"cmp"
	"go/ast"
	"maps"
	"path/filepath"
	"strings"
)

// AllocCheck keeps ralg's row-sized memory behind the execution's arena
// (internal/ralg/arena.go), which is where the memory budget is metered:
// carve charges every request before it serves it. The way around the
// meter is the Go allocator, so outside arena*.go it flags a make of a
// column element type ([]int64, []int32, []float64, []uint64, []bool,
// []string, []xqt.Kind) whose size is not a literal, and any map keyed by
// a row value (one of those types or a type parameter), made or literal:
// keyed lookup is the arena-backed keyTable's job. Maps keyed by plan
// nodes or axes are plan-time bookkeeping and pass.
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
		keys := rowKeyTypes(f)
		ast.Inspect(f, func(n ast.Node) bool {
			var mt ast.Expr // the map type a make or a literal constructs
			switch x := n.(type) {
			case *ast.CallExpr:
				if calleeName(x) != "make" || len(x.Args) == 0 {
					return true
				}
				if mt = x.Args[0]; columnMake(x) {
					diags = append(diags, p.diag("alloccheck", x,
						"row-sized make of a column type outside arena.go bypasses the memory budget; take it from the arena (dirty/zeroed)"))
				}
			case *ast.CompositeLit:
				mt = x.Type
			}
			if m, ok := mt.(*ast.MapType); ok {
				if id, ok := m.Key.(*ast.Ident); ok && keys[id.Name] {
					diags = append(diags, p.diag("alloccheck", n,
						"Go map keyed by a row value outside arena.go bypasses the memory budget; look keys up in a keyTable"))
				}
			}
			return true
		})
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

// columnElems are the element types of column vectors, and the key types
// of a row-keyed map.
var columnElems = map[string]bool{"int64": true, "int32": true, "float64": true, "uint64": true, "bool": true, "string": true, "Kind": true}

// columnMake reports whether call, a make([]E, n, …), has a column
// element type E and a size that is not all literals.
func columnMake(call *ast.CallExpr) bool {
	arr, ok := call.Args[0].(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return false
	}
	elem := arr.Elt
	if sel, ok := elem.(*ast.SelectorExpr); ok { // xqt.Kind
		elem = sel.Sel
	}
	if id, ok := elem.(*ast.Ident); !ok || !columnElems[id.Name] {
		return false
	}
	for _, size := range call.Args[1:] {
		if _, lit := size.(*ast.BasicLit); !lit {
			return true
		}
	}
	return false
}

// rowKeyTypes returns the key types of a row-keyed map in file: the
// column element types and the type parameters file declares.
func rowKeyTypes(file *ast.File) map[string]bool {
	names := maps.Clone(columnElems)
	ast.Inspect(file, func(n ast.Node) bool {
		list := &ast.FieldList{}
		switch x := n.(type) {
		case *ast.FuncType:
			list = cmp.Or(x.TypeParams, list)
		case *ast.TypeSpec:
			list = cmp.Or(x.TypeParams, list)
		}
		for _, f := range list.List {
			for _, id := range f.Names {
				names[id.Name] = true
			}
		}
		return true
	})
	return names
}

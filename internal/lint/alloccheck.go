package lint

import (
	"go/ast"
	"regexp"
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
var AllocCheck = &Analyzer{
	Name: "alloccheck",
	Doc:  "row-materializing operators must charge the memory budget (charge/chargeTable/Charge), reach a charge via same-package calls, or carry an alloccheck:exempt annotation",
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
		if !isAllocCandidate(p.Name, info.decl) {
			continue
		}
		if !hasAlloc(info.decl.Body) {
			continue
		}
		if _, ok := exemptReason(info.decl.Doc, "alloccheck:exempt"); ok {
			continue
		}
		if reaches(name) {
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

// hasAlloc reports whether the body contains a materializing allocation:
// a make or append call, including inside function literals.
func hasAlloc(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "make" || id.Name == "append") {
				found = true
			}
		}
		return !found
	})
	return found
}

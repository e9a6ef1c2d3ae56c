package lint

import (
	"go/ast"
	"regexp"
)

// CancelCheck enforces the executor's cancellation contract: every
// row-loop in the relational executor (ralg's exec* operator methods)
// and every staircase-join kernel (scj functions threading a *Stats)
// must poll cancellation on an amortized schedule, either directly
// (stopRequested / stopFunc / stopped / Stop wiring) or by calling —
// transitively, within the package — a function that does.
//
// A function whose loops are provably memory-bound (no per-row work
// that can stall for long) may opt out with an explanatory annotation
// in its doc comment:
//
//	// cancelcheck:exempt <reason>
//
// The reason is mandatory; a bare marker still fires.
var CancelCheck = &Analyzer{
	Name: "cancelcheck",
	Doc:  "executor row-loops must poll cancellation (amortized), reach a poll via same-package calls, or carry a cancelcheck:exempt annotation",
	Run:  runCancelCheck,
}

// cancelMarkers are the identifiers whose presence means the function
// participates in cancellation: the poll entry points themselves and
// the Stats.Stop wiring.
var cancelMarkers = map[string]bool{
	"stopRequested": true,
	"stopFunc":      true,
	"stopped":       true,
	"Stop":          true,
}

var execNameRE = regexp.MustCompile(`^exec[A-Z]`)

func runCancelCheck(p *Package) []Diagnostic {
	if p.Name != "ralg" && p.Name != "scj" {
		return nil
	}

	// funcInfo is the per-function summary the reachability pass works
	// over: whether the body mentions a cancellation marker, and which
	// same-package functions it may call (callee names, resolved
	// syntactically: f(...) and recv.f(...) both record "f").
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
					if cancelMarkers[x.Name] {
						info.direct = true
					}
				case *ast.SelectorExpr:
					if cancelMarkers[x.Sel.Name] {
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

	// reaches reports whether any function transitively callable from
	// name (same-package closure) mentions a cancellation marker.
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
		if !isCancelCandidate(p.Name, info.decl) {
			continue
		}
		if !hasLoop(info.decl.Body) {
			continue
		}
		if _, ok := exemptReason(info.decl.Doc, "cancelcheck:exempt"); ok {
			continue
		}
		if reaches(name) {
			continue
		}
		diags = append(diags, p.diag("cancelcheck", info.decl,
			"%s: row loop never polls cancellation; poll stopRequested/stopped amortized or annotate // cancelcheck:exempt <reason>", name))
	}
	return diags
}

// isCancelCandidate decides whether a function is bound by the
// cancellation contract: in ralg, the exec* operator implementations;
// in scj, any function threading the *Stats counters (the kernels).
func isCancelCandidate(pkg string, fd *ast.FuncDecl) bool {
	switch pkg {
	case "ralg":
		return execNameRE.MatchString(fd.Name.Name)
	case "scj":
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

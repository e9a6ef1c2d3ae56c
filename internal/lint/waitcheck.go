package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// WaitCheck enforces the scheduler/serving wait contract: anything in
// packages sched or serve that can block on a channel must stay
// cancellable. Concretely:
//
//   - A select with no default clause must have a case that receives
//     from a Done channel (ctx.Done() or a variable holding one), so a
//     queued waiter honors deadline/cancellation.
//   - A bare channel send or receive outside a select blocks
//     unconditionally and is flagged.
//
// Operations that provably cannot block — draining a buffered slot the
// function is known to hold — opt out with an explanatory annotation in
// the function's doc comment:
//
//	// waitcheck:exempt <reason>
//
// The reason is mandatory; a bare marker still fires.
var WaitCheck = &Analyzer{
	Name: "waitcheck",
	Doc:  "scheduler/serving wait points must poll context cancellation (select with a Done case or default) or carry a waitcheck:exempt annotation",
	Run:  runWaitCheck,
}

func runWaitCheck(p *Package) []Diagnostic {
	if p.Name != "sched" && p.Name != "serve" {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			_, exempt := exemptReason(fd.Doc, "waitcheck:exempt")

			// Channel operations that are a select's comm clause are
			// judged as part of that select, not as bare operations.
			commStmts := map[ast.Stmt]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectStmt); ok {
					for _, c := range sel.Body.List {
						if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
							commStmts[cc.Comm] = true
						}
					}
				}
				return true
			})

			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if st, ok := n.(ast.Stmt); ok && commStmts[st] {
					return false
				}
				switch x := n.(type) {
				case *ast.SelectStmt:
					if exempt || selectHasDefault(x) || selectPollsDone(x) {
						return true
					}
					diags = append(diags, p.diag("waitcheck", x,
						"%s: select blocks without a default or Done case; honor ctx.Done() or annotate // waitcheck:exempt <reason>", fd.Name.Name))
				case *ast.SendStmt:
					if !exempt {
						diags = append(diags, p.diag("waitcheck", x,
							"%s: bare channel send blocks unconditionally; use a select with ctx.Done() or annotate // waitcheck:exempt <reason>", fd.Name.Name))
					}
				case *ast.UnaryExpr:
					if x.Op == token.ARROW && !exempt {
						diags = append(diags, p.diag("waitcheck", x,
							"%s: bare channel receive blocks unconditionally; use a select with ctx.Done() or annotate // waitcheck:exempt <reason>", fd.Name.Name))
					}
				}
				return true
			})
		}
	}
	return diags
}

// selectHasDefault reports whether the select has a default clause (it
// cannot block).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// selectPollsDone reports whether any case of the select mentions a
// Done channel: a ctx.Done() call, or an identifier conventionally
// holding one ("done"-named variables).
func selectPollsDone(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		found := false
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if x.Sel.Name == "Done" {
					found = true
				}
			case *ast.Ident:
				if strings.EqualFold(x.Name, "done") {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

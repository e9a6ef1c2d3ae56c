package planck

import (
	"fmt"
	"strings"

	"mxq/internal/ralg"
	"mxq/internal/scj"
)

// Explain renders the numbered plan s as an indented tree from its
// root, each operator labeled #N with its number in s (an element
// constructor that builds by reference followed by "by-ref") and
// annotated with planck's inferred output schema and the optimizer-side
// column properties. Shared subplans are printed once and referenced by
// number afterwards. When the plan violates an invariant the tree is
// still rendered, with the violation appended.
func Explain(s ralg.Schedule, cfg Config) (string, error) {
	infos, err := Analyze(s, cfg)
	var b strings.Builder
	printed := make([]bool, len(s))
	var rec func(id int, prefix, branch string)
	rec = func(id int, prefix, branch string) {
		if id < 0 {
			fmt.Fprintf(&b, "%s%s<nil>\n", prefix, branch)
			return
		}
		n := s[id].Plan
		if printed[id] {
			fmt.Fprintf(&b, "%s%s#%d %s (shared)\n", prefix, branch, id, opLabel(n))
			return
		}
		printed[id] = true
		mode := ""
		if s[id].Ref {
			mode = " by-ref"
		}
		fmt.Fprintf(&b, "%s%s#%d %s%s%s\n", prefix, branch, id, opLabel(n), mode, annotation(infos[id]))
		ins := s[id].In
		childPrefix := prefix
		switch branch {
		case "├── ":
			childPrefix += "│   "
		case "└── ":
			childPrefix += "    "
		}
		for i, in := range ins {
			cb := "├── "
			if i == len(ins)-1 {
				cb = "└── "
			}
			rec(in, childPrefix, cb)
		}
	}
	rec(len(s)-1, "", "")
	if err != nil {
		fmt.Fprintf(&b, "!! %v\n", err)
	}
	return b.String(), err
}

func annotation(info Info) string {
	if info.Schema == nil {
		return ""
	}
	var b strings.Builder
	if info.Schema.Any {
		b.WriteString("  [?]")
	} else {
		b.WriteString("  [")
		for i, c := range info.Schema.Cols() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c)
			b.WriteByte(':')
			b.WriteString(info.Schema.Info(c).String())
		}
		b.WriteString("]")
	}
	if cols := info.Props.KeyCols(); len(cols) > 0 {
		fmt.Fprintf(&b, " key{%s}", strings.Join(cols, ","))
	}
	if cols := info.Props.ConstCols(); len(cols) > 0 {
		fmt.Fprintf(&b, " const{%s}", strings.Join(cols, ","))
	}
	for _, ord := range info.Props.Ords() {
		fmt.Fprintf(&b, " ord(%s)", strings.Join(ord, ","))
	}
	for _, g := range info.Props.Grps() {
		fmt.Fprintf(&b, " grpord(%s; %s)", strings.Join(g.Cols, ","), g.Group)
	}
	return b.String()
}

// opLabel renders one operator with its interesting annotations — more
// detail than Plan.Name(), which only identifies the operator class.
func opLabel(n ralg.Plan) string {
	switch x := n.(type) {
	case *ralg.Project:
		refs := make([]string, len(x.Cols))
		for i, r := range x.Cols {
			if r.Src == r.Dst {
				refs[i] = r.Src
			} else {
				refs[i] = r.Src + "->" + r.Dst
			}
		}
		return "project(" + strings.Join(refs, ",") + ")"
	case *ralg.Attach:
		return fmt.Sprintf("attach(%s:%s)", x.Col, x.It.K)
	case *ralg.Select:
		return fmt.Sprintf("select(%s)", x.Cond)
	case *ralg.Fun:
		name := fmt.Sprintf("fun(%d)", x.Op)
		if spec, ok := funSpecs[x.Op]; ok {
			name = spec.name
		}
		return fmt.Sprintf("%s(%s := %s)", name, x.Out, strings.Join(x.Args, ","))
	case *ralg.RowNum:
		mode := ""
		switch x.Mode {
		case ralg.RankStream:
			mode = " stream"
		case ralg.RankSeq:
			mode = " seq"
		}
		part := ""
		if x.Part != "" {
			part = " part " + x.Part
		}
		return fmt.Sprintf("rownum(%s := rank by %s%s%s)", x.Out, orderList(x.OrderBy, x.Desc), part, mode)
	case *ralg.Sort:
		refine := ""
		if x.RefinePrefix > 0 {
			refine = fmt.Sprintf(" refine=%d", x.RefinePrefix)
		}
		return fmt.Sprintf("sort(%s%s)", orderList(x.By, x.Desc), refine)
	case *ralg.HashJoin:
		return fmt.Sprintf("join(%s = %s)", x.LKey, x.RKey)
	case *ralg.ExistJoin:
		mode := ""
		if x.Count {
			mode = " := count"
		}
		return fmt.Sprintf("existjoin(%s %s %s -> %s,%s%s)", x.LItem, x.Cmp, x.RItem, x.Out1, x.Out2, mode)
	case *ralg.Cross:
		return "cross"
	case *ralg.Union:
		return fmt.Sprintf("union(%d)", len(x.Ins))
	case *ralg.Diff:
		return fmt.Sprintf("diff(%s \\ %s)", x.LKey, x.RKey)
	case *ralg.Distinct:
		return fmt.Sprintf("distinct(%s)", strings.Join(x.By, ","))
	case *ralg.Aggr:
		return fmt.Sprintf("aggr(%s := %s(%s) part %s)", x.Out, aggName(x.Op), x.Arg, x.Part)
	case *ralg.Step:
		mode := ""
		if x.Count {
			mode = " count"
		}
		return fmt.Sprintf("step(%s::%s%s%s)", x.Axis, testName(x.Test), stepVariant(x.Variant), mode)
	case *ralg.ElemConstruct:
		// the template: tags with attribute names, {} per content part
		var sb strings.Builder
		for _, t := range x.Template {
			switch t.Kind {
			case ralg.TokStart:
				sb.WriteString("<" + t.Tag)
				for _, a := range t.Attrs {
					sb.WriteString(" " + a.Attr)
				}
				sb.WriteString(">")
			case ralg.TokPart:
				sb.WriteString("{}")
			case ralg.TokEnd:
				sb.WriteString("</>")
			}
		}
		return "elem(" + sb.String() + ")"
	case *ralg.RangeGen:
		return fmt.Sprintf("rangegen(%s to %s by %s)", x.Lo, x.Hi, x.Iter)
	case *ralg.CoverCheck:
		return fmt.Sprintf("covercheck(%s ⊇ %s, %s %s)", x.Part, x.LoopIter, x.Fn, x.Code)
	case *ralg.EBV:
		if x.Pos != "" {
			return fmt.Sprintf("ebv(%s part %s at %s)", x.Item, x.Part, x.Pos)
		}
		return fmt.Sprintf("ebv(%s part %s)", x.Item, x.Part)
	case *ralg.CardCheck:
		return fmt.Sprintf("cardcheck(part %s, %s %s)", x.Part, x.Fn, x.Code)
	case *ralg.Fail:
		return fmt.Sprintf("fail(%s)", x.Code)
	case *ralg.ParamTable:
		return fmt.Sprintf("param($%s)", x.Var)
	case *ralg.DocRoot:
		return fmt.Sprintf("doc(%q)", x.Doc)
	case *ralg.ContextRoot:
		return "ctxroot"
	case *ralg.CollectionRoot:
		return fmt.Sprintf("collection(%q)", x.Coll)
	case *ralg.Lit:
		rows := 0
		if x.Tab != nil {
			rows = x.Tab.N
		}
		return fmt.Sprintf("lit(%d rows)", rows)
	case *ralg.LitDecl:
		rows := 0
		if x.Tab != nil {
			rows = x.Tab.N
		}
		return fmt.Sprintf("litdecl(%d rows)", rows)
	}
	return n.Name()
}

func orderList(by []string, desc []bool) string {
	parts := make([]string, len(by))
	for i, c := range by {
		parts[i] = c
		if i < len(desc) && desc[i] {
			parts[i] += " desc"
		}
	}
	return strings.Join(parts, ",")
}

func aggName(op ralg.AggOp) string {
	switch op {
	case ralg.AggCount:
		return "count"
	case ralg.AggSum:
		return "sum"
	case ralg.AggMin:
		return "min"
	case ralg.AggMax:
		return "max"
	case ralg.AggAvg:
		return "avg"
	}
	return fmt.Sprintf("agg(%d)", op)
}

func testName(t scj.Test) string {
	switch t.Kind {
	case scj.TestNode:
		return "node()"
	case scj.TestElem:
		if t.Name == "" {
			return "*"
		}
		return t.Name
	case scj.TestText:
		return "text()"
	case scj.TestComment:
		return "comment()"
	case scj.TestPI:
		if t.Name != "" {
			return fmt.Sprintf("processing-instruction(%s)", t.Name)
		}
		return "processing-instruction()"
	case scj.TestDoc:
		return "document-node()"
	}
	return fmt.Sprintf("test(%d)", t.Kind)
}

func stepVariant(v scj.Variant) string {
	switch v {
	case scj.Iterative:
		return " iterative"
	case scj.CandidateList:
		return " candidates"
	}
	return ""
}

package naive

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf8"

	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

// maxUDFDepth bounds user-defined function recursion.
const maxUDFDepth = 512

func (in *Interp) evalCall(c *xqp.Call, env *scope) ([]Val, error) {
	if f, ok := in.funcs[c.Name]; ok {
		if len(c.Args) != len(f.Params) {
			return nil, xqerr.Newf("XPST0017", "%s expects %d arguments", c.Name, len(f.Params))
		}
		if in.depth >= maxUDFDepth {
			return nil, fmt.Errorf("naive: user function recursion deeper than %d", maxUDFDepth)
		}
		// function bodies see the prolog variables (externals and
		// globals) but not the caller's locals; parameters shadow
		fenv := &scope{vars: make(map[string][]Val, len(in.prolog)+len(f.Params))}
		for name, v := range in.prolog {
			fenv.vars[name] = v
		}
		for i, p := range f.Params {
			v, err := in.eval(c.Args[i], env)
			if err != nil {
				return nil, err
			}
			fenv.vars[p] = v
		}
		in.depth++
		defer func() { in.depth-- }()
		return in.eval(f.Body, fenv)
	}
	args := make([][]Val, len(c.Args))
	for i, a := range c.Args {
		v, err := in.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return in.callBuiltin(c.Name, args, env)
}

// singletons is the one rule for operands that must be a single item:
// more is XPTY0004, and the caller gives an empty one its result.
func singletons(what string, vs ...[]Val) error {
	for _, v := range vs {
		if len(v) > 1 {
			return xqerr.Newf("XPTY0004", "%s applied to a sequence of %d items", what, len(v))
		}
	}
	return nil
}

func single(args [][]Val, i int) (xqt.Item, bool) {
	if i >= len(args) || len(args[i]) == 0 {
		return xqt.Item{}, false
	}
	return args[i][0].Atomize(), true
}

func (in *Interp) callBuiltin(name string, args [][]Val, env *scope) ([]Val, error) {
	switch name { // the builtins whose every argument is a single item
	case "string", "number", "name", "local-name", "floor", "ceiling", "round", "string-length",
		"contains", "starts-with", "concat", "doc", "collection":
		if err := singletons(name, args...); err != nil {
			return nil, err
		}
	}
	switch name {
	case "true":
		return []Val{atomVal(xqt.Bool(true))}, nil
	case "false":
		return []Val{atomVal(xqt.Bool(false))}, nil
	case "count":
		return []Val{atomVal(xqt.Int(int64(len(args[0]))))}, nil
	case "empty":
		return []Val{atomVal(xqt.Bool(len(args[0]) == 0))}, nil
	case "exists":
		return []Val{atomVal(xqt.Bool(len(args[0]) != 0))}, nil
	case "not":
		b, err := ebv(args[0])
		if err != nil {
			return nil, err
		}
		return []Val{atomVal(xqt.Bool(!b))}, nil
	case "boolean":
		b, err := ebv(args[0])
		if err != nil {
			return nil, err
		}
		return []Val{atomVal(xqt.Bool(b))}, nil
	case "sum":
		allInt := true
		var si int64
		var sf float64
		for _, v := range args[0] {
			a := v.Atomize()
			if a.K == xqt.KInt {
				si += a.I
			} else {
				allInt = false
			}
			sf += a.AsDouble()
		}
		if allInt {
			return []Val{atomVal(xqt.Int(si))}, nil
		}
		return []Val{atomVal(xqt.Double(sf))}, nil
	case "avg":
		if len(args[0]) == 0 {
			return nil, nil
		}
		var sf float64
		for _, v := range args[0] {
			sf += v.Atomize().AsDouble()
		}
		return []Val{atomVal(xqt.Double(sf / float64(len(args[0]))))}, nil
	case "min", "max":
		// F&O: xs:untypedAtomic is cast to xs:double; numbers compare as
		// xs:double — exactly when every value is an xs:integer — strings
		// and booleans among themselves (else FORG0006); NaN wins and a
		// tie keeps the earlier value
		atoms := make([]xqt.Item, len(args[0]))
		exact := true
		for i, v := range args[0] {
			if atoms[i] = v.Atomize(); atoms[i].K == xqt.KUntyped {
				atoms[i] = xqt.Double(atoms[i].AsDouble())
			}
			exact = exact && atoms[i].K == xqt.KInt
		}
		var best xqt.Item
		for i, a := range atoms {
			switch {
			case i == 0:
			case (a.K == xqt.KString) != (best.K == xqt.KString) || (a.K == xqt.KBool) != (best.K == xqt.KBool):
				return nil, xqerr.Newf("FORG0006", "%s over %s and %s values", name, best.K, a.K)
			case !minMaxBeats(a, best, name == "max", exact):
				continue
			}
			best = a
		}
		if len(args[0]) == 0 {
			return nil, nil
		}
		return []Val{atomVal(best)}, nil
	case "string":
		it, ok := single(args, 0)
		if !ok {
			return []Val{atomVal(xqt.Str(""))}, nil
		}
		return []Val{atomVal(xqt.Str(it.AsString()))}, nil
	case "data":
		out := make([]Val, len(args[0]))
		for i, v := range args[0] {
			out[i] = atomVal(v.Atomize())
		}
		return out, nil
	case "number":
		it, ok := single(args, 0)
		if !ok {
			return []Val{atomVal(xqt.Double(math.NaN()))}, nil
		}
		return []Val{atomVal(xqt.Double(it.AsDouble()))}, nil
	case "contains", "starts-with":
		a, _ := single(args, 0)
		b, _ := single(args, 1)
		if name == "contains" {
			return []Val{atomVal(xqt.Bool(strings.Contains(a.AsString(), b.AsString())))}, nil
		}
		return []Val{atomVal(xqt.Bool(strings.HasPrefix(a.AsString(), b.AsString())))}, nil
	case "concat":
		var sb strings.Builder
		for i := range args {
			if it, ok := single(args, i); ok {
				sb.WriteString(it.AsString())
			}
		}
		return []Val{atomVal(xqt.Str(sb.String()))}, nil
	case "string-length":
		// characters, not bytes: string-length("héllo") is 5
		it, _ := single(args, 0)
		return []Val{atomVal(xqt.Int(int64(utf8.RuneCountInString(it.AsString()))))}, nil
	case "floor", "ceiling", "round":
		it, ok := single(args, 0)
		if !ok {
			return nil, nil
		}
		f := it.AsDouble()
		switch name {
		case "floor":
			f = math.Floor(f)
		case "ceiling":
			f = math.Ceil(f)
		default:
			f = xqt.Round(f)
		}
		return []Val{atomVal(xqt.Double(f))}, nil
	case "distinct-values":
		atoms := make([]xqt.Item, len(args[0]))
		for i, v := range args[0] {
			atoms[i] = v.Atomize()
		}
		exact := !slices.ContainsFunc(atoms, func(a xqt.Item) bool { return a.K == xqt.KDouble })
		seen := make(map[string]bool)
		var out []Val
		for _, a := range atoms {
			k := valueKey(a, exact)
			if !seen[k] {
				seen[k] = true
				out = append(out, atomVal(a))
			}
		}
		return out, nil
	case "zero-or-one":
		if len(args[0]) > 1 {
			return nil, xqerr.Newf("FORG0003", "zero-or-one applied to a sequence of %d items", len(args[0]))
		}
		return args[0], nil
	case "exactly-one":
		if len(args[0]) != 1 {
			return nil, xqerr.Newf("FORG0005", "exactly-one applied to a sequence of %d items", len(args[0]))
		}
		return args[0], nil
	case "one-or-more":
		if len(args[0]) == 0 {
			return nil, xqerr.Newf("FORG0004", "one-or-more applied to an empty sequence")
		}
		return args[0], nil
	case "name", "local-name":
		if len(args[0]) == 0 {
			return []Val{atomVal(xqt.Str(""))}, nil
		}
		v := args[0][0]
		var qn string
		switch {
		case v.Owner != nil:
			qn = v.Owner.Attrs[v.AIdx].Name
		case v.Node != nil:
			qn = v.Node.Name
		default:
			return nil, xqerr.Newf("XPTY0004", "name() of a non-node")
		}
		if name == "local-name" {
			qn = xqt.LocalName(qn)
		}
		return []Val{atomVal(xqt.Str(qn))}, nil
	case "doc":
		if len(args) != 1 {
			return nil, xqerr.Newf("XPST0017", "doc expects 1 argument")
		}
		it, ok := single(args, 0)
		if !ok {
			return nil, nil
		}
		root, ok := in.docs[it.AsString()]
		if !ok {
			return nil, xqerr.Newf("FODC0002", "document %q not loaded", it.AsString())
		}
		return []Val{{Node: root}}, nil
	case "collection":
		if len(args) != 1 {
			return nil, xqerr.Newf("XPST0017", "collection expects 1 argument")
		}
		it, ok := single(args, 0)
		if !ok {
			return nil, nil
		}
		roots, ok := in.collections[it.AsString()]
		if !ok {
			return nil, xqerr.Newf("FODC0004", "collection %q not available", it.AsString())
		}
		out := make([]Val, len(roots))
		for i, r := range roots {
			out[i] = Val{Node: r}
		}
		return out, nil
	case "last":
		if env.ctxItem == nil {
			return nil, xqerr.Newf("XPDY0002", "last() outside a predicate")
		}
		return []Val{atomVal(xqt.Int(int64(env.ctxSize)))}, nil
	case "position":
		if env.ctxItem == nil {
			return nil, xqerr.Newf("XPDY0002", "position() outside a predicate")
		}
		return []Val{atomVal(xqt.Int(int64(env.ctxPos)))}, nil
	}
	return nil, xqerr.Newf("XPST0017", "unknown function %s#%d", name, len(args))
}

// valueKey normalizes an atom for distinct-values: numeric values compare
// numerically (so 1 and 1.0 are one value, so are -0 and +0, and so is
// every NaN) — integers exactly in a sequence without an xs:double
// (exact) — booleans only against booleans, everything else as strings
// (values of incomparable types are distinct per the XQuery spec).
func valueKey(a xqt.Item, exact bool) string {
	switch {
	case exact && a.K == xqt.KInt:
		return fmt.Sprintf("n%d", a.I)
	case a.IsNumeric() && a.AsDouble() == 0:
		return "n0"
	case a.IsNumeric():
		return fmt.Sprintf("n%v", a.AsDouble())
	case a.K == xqt.KBool:
		return "b" + a.AsString()
	}
	return "s" + a.AsString()
}

func (in *Interp) evalCtor(c *xqp.ElemCtor, env *scope) ([]Val, error) {
	elem := &Node{Kind: store.KindElem, Name: c.Name}
	in.ord++
	elem.Ord = in.ord
	for _, a := range c.Attrs {
		var sb strings.Builder
		for _, part := range a.Parts {
			switch p := part.(type) {
			case *xqp.Literal:
				sb.WriteString(p.S)
			default:
				v, err := in.eval(part, env)
				if err != nil {
					return nil, err
				}
				for i, item := range v {
					if i > 0 {
						sb.WriteString(" ")
					}
					sb.WriteString(item.Atomize().AsString())
				}
			}
		}
		elem.Attrs = append(elem.Attrs, Attr{Name: a.Name, Val: sb.String()})
	}
	var pending strings.Builder
	sawContent := false
	flush := func() {
		if pending.Len() > 0 {
			in.ord++
			t := &Node{Kind: store.KindText, Text: pending.String(), Parent: elem, Ord: in.ord}
			elem.Children = append(elem.Children, t)
			pending.Reset()
		}
	}
	for _, part := range c.Content {
		// literal text chunks and enclosed expressions are both content
		// atoms; adjacent atoms of one part join with a single space,
		// adjacent parts' directly (XQuery §3.7.1.3)
		v, err := in.eval(part, env)
		if err != nil {
			return nil, err
		}
		for i, item := range v {
			switch {
			case item.Node != nil:
				flush()
				if item.Node.Kind == store.KindDoc {
					for _, ch := range item.Node.Children {
						elem.Children = append(elem.Children, in.copyTree(ch, elem))
					}
				} else {
					elem.Children = append(elem.Children, in.copyTree(item.Node, elem))
				}
				sawContent = true
			case item.Owner != nil:
				a := item.Owner.Attrs[item.AIdx]
				if sawContent {
					return nil, xqerr.Newf("XQTY0024", "attribute node after content in element constructor")
				}
				for _, prev := range elem.Attrs {
					if prev.Name == a.Name {
						return nil, xqerr.Newf("XQDY0025", "duplicate attribute %s in element constructor", a.Name)
					}
				}
				elem.Attrs = append(elem.Attrs, Attr{Name: a.Name, Val: a.Val})
			default:
				if i > 0 && pending.Len() > 0 {
					pending.WriteByte(' ')
				}
				s := item.Atom.AsString()
				pending.WriteString(s)
				sawContent = sawContent || s != ""
			}
		}
	}
	flush()
	return []Val{{Node: elem}}, nil
}

// copyTree deep-copies a subtree, assigning fresh document-order ranks.
func (in *Interp) copyTree(n *Node, parent *Node) *Node {
	in.ord++
	cp := &Node{Kind: n.Kind, Name: n.Name, Text: n.Text, Parent: parent, Ord: in.ord}
	cp.Attrs = append(cp.Attrs, n.Attrs...)
	for _, ch := range n.Children {
		cp.Children = append(cp.Children, in.copyTree(ch, cp))
	}
	return cp
}

// minMaxBeats reports whether a replaces best, the extremum so far: NaN
// wins, and a tie keeps best; exact compares xs:integer values as
// themselves, not as xs:double.
func minMaxBeats(a, best xqt.Item, isMax, exact bool) bool {
	switch {
	case a.K == xqt.KString:
		return isMax && a.S > best.S || !isMax && a.S < best.S
	case exact:
		return isMax && a.I > best.I || !isMax && a.I < best.I
	}
	x, y := a.AsDouble(), best.AsDouble()
	return x != x && y == y || isMax && x > y || !isMax && x < y
}

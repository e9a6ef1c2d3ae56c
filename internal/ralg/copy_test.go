package ralg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"
)

// operators is every Plan type, one zero value each: the list the
// every-operator copy test runs over. TestOperatorListComplete fails
// when plan.go declares an operator that is missing here.
var operators = []Plan{
	&Lit{}, &LitDecl{}, &DocRoot{}, &ContextRoot{}, &ParamTable{}, &CollectionRoot{}, &Fail{},
	&Project{}, &Attach{}, &Select{}, &Fun{}, &RowNum{}, &Sort{}, &HashJoin{}, &ExistJoin{},
	&Cross{}, &Union{}, &Diff{}, &Distinct{}, &Aggr{}, &Step{}, &AttrStep{}, &ElemConstruct{},
	&ColToItem{}, &RangeGen{}, &CoverCheck{}, &EBV{}, &CardCheck{},
}

// populator fills plan nodes by reflection: every scalar non-zero and
// distinct, every slice two elements long, every *Table a fresh table,
// every Plan slot a distinct Sort over the one shared leaf.
type populator struct {
	t      *testing.T
	n      int64
	shared Plan
}

func (f *populator) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprint("s", f.n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(f.n%100 + 1)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.n%100 + 1))
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.5)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		f.fill(v.Index(0))
		f.fill(v.Index(1))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	case reflect.Ptr:
		if _, ok := v.Interface().(*Table); !ok {
			f.t.Fatalf("populator: pointer field of type %s", v.Type())
		}
		tab := NewTable(nil, nil)
		tab.AddCol("iter", Col{Kind: KInt, Int: []int64{f.n, f.n + 1}})
		v.Set(reflect.ValueOf(tab))
	case reflect.Interface:
		v.Set(reflect.ValueOf(Plan(NewSort(f.shared, fmt.Sprint("k", f.n)))))
	default:
		f.t.Fatalf("populator: field of kind %s (%s)", v.Kind(), v.Type())
	}
}

// firstZero names a field of v that fill left at its zero value.
func firstZero(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if z := firstZero(v.Field(i), path+"."+v.Type().Field(i).Name); z != "" {
				return z
			}
		}
		return ""
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if z := firstZero(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); z != "" {
				return z
			}
		}
	}
	if v.IsZero() {
		return path
	}
	return ""
}

// sliceArrays records the backing array of every non-empty slice the
// node n owns (through struct fields and slice elements; pointers and
// interfaces are other objects).
func sliceArrays(n Plan, into map[uintptr]string) {
	var rec func(v reflect.Value, path string)
	rec = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				rec(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if v.Len() > 0 {
				into[v.Pointer()] = path
			}
			for i := 0; i < v.Len(); i++ {
				rec(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
	rec(reflect.ValueOf(n).Elem(), fmt.Sprintf("%T", n))
}

func nodeSet(p Plan) map[Plan]bool {
	set := map[Plan]bool{}
	Walk(p, func(n Plan) { set[n] = true })
	return set
}

// assertDisjoint fails when the DAGs a and b share a node object or a
// slice backing array. Go gives every zero-size allocation one address,
// so two ContextRoot nodes are never distinct objects — and have no
// state to alias.
func assertDisjoint(t *testing.T, a, b Plan) {
	t.Helper()
	an, arrays := nodeSet(a), map[uintptr]string{}
	for n := range an {
		sliceArrays(n, arrays)
	}
	for n := range nodeSet(b) {
		if an[n] && reflect.TypeOf(n).Elem().Size() > 0 {
			t.Errorf("node %T is shared", n)
		}
		mine := map[uintptr]string{}
		sliceArrays(n, mine)
		for addr, path := range mine {
			if other, ok := arrays[addr]; ok {
				t.Errorf("slice %s shares its backing array with %s", path, other)
			}
		}
	}
}

// The copier is derived from the operator structs, so it is tested over
// every operator with every field populated: the copy is deeply equal,
// shares no node and no slice with the original, shares subplans the
// way the original does, honours Replace, and CopyNode twice yields two
// clones wired to the same input copies.
func TestCopyEveryOperator(t *testing.T) {
	for _, op := range operators {
		typ := reflect.TypeOf(op).Elem()
		t.Run(typ.Name(), func(t *testing.T) {
			tab := NewTable(nil, nil)
			tab.AddCol("iter", Col{Kind: KInt, Int: []int64{1, 2, 3}})
			shared := Plan(&Lit{Tab: tab})
			nv := reflect.New(typ)
			(&populator{t: t, shared: shared}).fill(nv.Elem())
			if z := firstZero(nv.Elem(), typ.Name()); z != "" {
				t.Fatalf("populator left %s zero", z)
			}
			node := nv.Interface().(Plan)
			ins := node.Inputs()
			for i, in := range ins {
				for _, other := range ins[:i] {
					if in == other {
						t.Fatalf("inputs %d is not distinct", i)
					}
				}
			}
			root := &Union{Ins: []Plan{node, shared}}

			cp := NewCopier().Copy(root)
			if !reflect.DeepEqual(root, cp) {
				t.Errorf("copy differs from the original:\n%#v\n%#v", node, cp.Inputs()[0])
			}
			if on, cn := len(nodeSet(root)), len(nodeSet(cp)); on != cn {
				t.Errorf("original has %d distinct nodes, copy has %d (sharing not preserved)", on, cn)
			}
			assertDisjoint(t, root, cp)

			c, sub := NewCopier(), &LitDecl{Tab: tab}
			c.Replace(shared, sub)
			rep := nodeSet(c.Copy(root))
			if rep[shared] || !rep[sub] || len(rep) != len(nodeSet(root)) {
				t.Errorf("Replace: original leaf present=%v, substitute present=%v, %d nodes (want %d)",
					rep[shared], rep[sub], len(rep), len(nodeSet(root)))
			}
			if !reflect.DeepEqual(node.Inputs(), ins) || !nodeSet(root)[shared] {
				t.Error("Replace rewired the original")
			}

			c = NewCopier()
			a, b := c.CopyNode(node), c.CopyNode(node)
			if (typ.Size() > 0 && (a == b || a == node)) || !reflect.DeepEqual(a, node) || !reflect.DeepEqual(b, node) {
				t.Errorf("CopyNode twice: same object=%v, equal to the original=%v/%v",
					a == b, reflect.DeepEqual(a, node), reflect.DeepEqual(b, node))
			}
			own := map[uintptr]string{}
			sliceArrays(a, own)
			before := len(own)
			sliceArrays(b, own)
			sliceArrays(node, own)
			if len(own) != 3*before {
				t.Errorf("the two clones and the original share a slice: %d arrays, want %d", len(own), 3*before)
			}
			for i, in := range a.Inputs() {
				if in != b.Inputs()[i] || in == ins[i] {
					t.Errorf("input %d: clones wired to the same copy=%v, to the original=%v", i, in == b.Inputs()[i], in == ins[i])
				}
			}
		})
	}
}

// receivers returns the receiver type names of the methods called name
// declared in file, and the *T case types of the type switch inside the
// one of them whose receiver is recv (nil when recv is "").
func receivers(t *testing.T, file, name, recv string) (types, cases []string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != name {
			continue
		}
		rt := fn.Recv.List[0].Type
		if star, ok := rt.(*ast.StarExpr); ok {
			rt = star.X
		}
		types = append(types, rt.(*ast.Ident).Name)
		if rt.(*ast.Ident).Name != recv {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if star, ok := e.(*ast.StarExpr); ok {
						cases = append(cases, star.X.(*ast.Ident).Name)
					}
				}
			}
			return true
		})
	}
	sort.Strings(types)
	sort.Strings(cases)
	return types, cases
}

// Every operator plan.go declares (a type with a Name method) must be in
// the operators list above and have a case in (*Exec).apply: the checks
// that replace the copier's own per-operator switch.
func TestOperatorListComplete(t *testing.T) {
	declared, _ := receivers(t, "plan.go", "Name", "")
	_, applied := receivers(t, "exec.go", "apply", "Exec")
	var listed []string
	for _, op := range operators {
		listed = append(listed, reflect.TypeOf(op).Elem().Name())
	}
	sort.Strings(listed)
	if len(declared) == 0 || !reflect.DeepEqual(declared, listed) {
		t.Errorf("plan.go declares operators\n%v\nthe operators list of this test has\n%v", declared, listed)
	}
	if !reflect.DeepEqual(declared, applied) {
		t.Errorf("plan.go declares operators\n%v\n(*Exec).apply handles\n%v", declared, applied)
	}
}

// Mutating a copy — annotations and wiring alike — must never reach
// the original.
func TestCopyMutationIsolation(t *testing.T) {
	tab := NewTable(nil, nil)
	tab.AddCol("iter", Col{Kind: KInt, Int: []int64{1, 2}})
	shared := NewSort(&Lit{Tab: tab}, "iter")
	join := NewHashJoin(shared, shared, "iter", "iter", nil, nil)
	cp := NewCopier().Copy(join).(*HashJoin)
	if cp.L != cp.R {
		t.Fatal("input shared in the original is not shared in the copy")
	}

	cs := cp.L.(*Sort)
	cs.By[0] = "mutated"
	cs.RefinePrefix = 7
	cp.Pos = true
	cp.SetInput(1, &Lit{Tab: tab})
	if shared.By[0] != "iter" || shared.RefinePrefix != 0 {
		t.Error("mutating the copied sort reached the original")
	}
	if join.Pos || join.R != shared {
		t.Error("mutating the copied join reached the original")
	}
	if reflect.DeepEqual(join, cp) {
		t.Error("mutated copy still deeply equal to the original")
	}
}

// Replace pre-seeds the copier: occurrences of a subplan map to the
// substitute, shared occurrences to the one substitute object.
func TestCopierReplace(t *testing.T) {
	tab := NewTable(nil, nil)
	tab.AddCol("iter", Col{Kind: KInt, Int: []int64{2, 1}})
	in := &Lit{Tab: tab}
	sorted := NewSort(in, "iter")

	sub := &LitDecl{Tab: tab, Ords: [][]string{{"iter"}}}
	c := NewCopier()
	c.Replace(in, sub)
	got := c.Copy(sorted).(*Sort)
	if got.In != Plan(sub) {
		t.Fatalf("substitution not applied: input is %T", got.In)
	}
	if c.Copy(in) != Plan(sub) {
		t.Fatal("replaced subplan does not map to the substitute")
	}
	if sorted.In != Plan(in) {
		t.Fatal("substitution mutated the original plan")
	}
}

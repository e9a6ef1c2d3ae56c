package ralg

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// settle and unionVecs copy their parts into one list of exactly their
// total size: a column never aliases the scratch it was built in.
func TestSettleCopiesAtExactSize(t *testing.T) {
	part := []int32{1, 2, 3}
	if got := settle(nil, part); &got[0] == &part[0] || cap(got) != 3 {
		t.Error("settle adopted its input")
	}
	if got := settle(nil, []int32{1}, nil, []int32{2, 3}); fmt.Sprint(got) != "[1 2 3]" || cap(got) != 3 {
		t.Errorf("settle = %v (cap %d)", got, cap(got))
	}
	vec, str := ItemsOf(xqt.Int(1), xqt.Int(2)), ItemsOf(xqt.Str("x"))
	mixed := unionVecs(nil, []ItemVec{vec, str})
	if mixed.Len() != 3 || mixed.At(2) != xqt.Str("x") || mixed.At(0) != xqt.Int(1) {
		t.Errorf("unionVecs = %v", mixed.Slice())
	}
}

// shardedPlans builds a collection of six documents over three shards
// (4 800 attribute rows) and one plan per row-loop operator over it.
func shardedPlans(t *testing.T) (*store.Pool, map[string]Plan) {
	t.Helper()
	var names []string
	for d := 0; d < 6; d++ {
		names = append(names, fmt.Sprintf("d%d.xml", d))
	}
	sp, err := store.BuildSharded("c", 3, names, func(doc string, b *store.Builder) error {
		var sb strings.Builder
		sb.WriteString("<d>")
		for i := 0; i < 400; i++ {
			fmt.Fprintf(&sb, `<e k="%d" v="%d.5"/>`, i%7, (i*len(doc)+i/3)%11)
		}
		sb.WriteString("</d>")
		return store.ShredInto(b, doc, strings.NewReader(sb.String()), false)
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := store.NewPool()
	pool.RegisterCollection(sp)

	step := &Step{unary: unary{In: &CollectionRoot{Coll: "c"}}, Axis: scj.Descendant,
		Test: scj.Test{Kind: scj.TestElem, Name: "e"}, Variant: scj.LoopLifted, IterCol: "pos", ItemCol: "item"}
	attrs := &Step{unary: unary{In: step}, Axis: scj.Attribute, Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"}
	num := NewFun(attrs, FunNumber, "n", "item")
	cond := NewFun(AttachItem(num, "five", xqt.Double(5)), FunLt, "b", "n", "five")
	keys := NewTable([]string{"rk", "rv"}, []xqt.Kind{xqt.KInt, xqt.KInt})
	for j := 0; j < 1200; j++ {
		*keys.Col("rk") = BindInts(append(keys.Ints("rk"), int64(j*3%2000))...)
		*keys.Col("rv") = BindInts(append(keys.Ints("rv"), int64(j))...)
	}
	keys.N = 1200
	numbered := &RowNum{unary: unary{In: num}, Out: "r", Mode: RankStream}
	return pool, map[string]Plan{
		"step":     step,
		"attrstep": attrs,
		"stepcount": &Step{unary: unary{In: step}, Axis: scj.DescendantOrSelf, Test: scj.Test{Kind: scj.TestNode},
			IterCol: "iter", ItemCol: "item", Count: true},
		"select":   &Select{unary: unary{In: cond}, Cond: "b"},
		"aggr-sum": &Aggr{unary: unary{In: num}, Part: "iter", Op: AggSum, Arg: "n", Out: "s"},
		"aggr-max": &Aggr{unary: unary{In: num}, Part: "iter", Op: AggMax, Arg: "n", Out: "m"},
		"rownum":   &RowNum{unary: unary{In: num}, Out: "r", Part: "iter", Mode: RankSeq},
		"hashjoin": NewHashJoin(numbered, &Lit{Tab: keys}, "r", "rk", Refs("iter", "n", "r"), Refs("rv")),
	}
}

// Every operator starts with a poll: an execution that is already
// cancelled or over budget runs no operator body — Select included,
// whose row loop polls only every 8 192 rows — and whole plans surface
// the stop as the execution's error, whichever operator it interrupts.
func TestOperatorsObserveCancelAndBudget(t *testing.T) {
	pool, plans := shardedPlans(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	spent := func() *MemBudget {
		m := NewMemBudget(1)
		m.Charge(2)
		return m
	}
	for name, stop := range map[string]func(e *Exec){
		"cancel": func(e *Exec) { e.Ctx, e.done = cancelled, cancelled.Done() },
		"budget": func(e *Exec) { e.Mem = spent() },
	} {
		in := tableOf([]string{"b"}, (&Exec{}).constItemVec(xqt.Bool(true), 5000))
		e := NewExec(pool, nil)
		stop(e)
		if out, err := e.runOp(Op{Plan: &Select{Cond: "b"}}, []*Table{in}); err == nil {
			t.Errorf("%s: Select produced %d rows on a stopped execution", name, out.N)
		}
	}
	for name, p := range plans {
		// the inputs of the operator under test run clean; only it is stopped
		warm := NewExec(pool, nil)
		var ins []*Table
		for _, c := range p.Inputs() {
			tab, err := warm.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, tab)
		}
		e := NewExec(pool, nil)
		e.Ctx, e.done = cancelled, cancelled.Done()
		if out, err := e.runOp(Op{Plan: p}, ins); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled operator returned %v rows, err %v", name, out, err)
		}
		e = NewExec(pool, nil)
		e.Mem = NewMemBudget(64)
		if _, err := e.Run(p); !xqerr.IsResourceLimit(err) {
			t.Errorf("%s: err = %v, want the resource limit", name, err)
		}
		e = NewExec(pool, nil)
		e.Ctx = cancelled
		if _, err := e.Run(p); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

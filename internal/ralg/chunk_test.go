package ralg

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/testutil"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// A lone chunk's output is adopted as the operator result: the serial
// case pays no copy for being expressed as chunks.
func TestLoneChunkIsAdopted(t *testing.T) {
	part := []int32{1, 2, 3}
	if got := concat(nil, [][]int32{part}); &got[0] != &part[0] {
		t.Error("concat copied a lone chunk")
	}
	if got := concat(nil, [][]int32{{1}, nil, {2, 3}}); fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("concat = %v", got)
	}
	// a column is never adopted: settle and unionVecs copy at exact size
	if got := settle(nil, part); &got[0] == &part[0] || cap(got) != 3 {
		t.Error("settle adopted its input")
	}
	vec, str := ItemsOf(xqt.Int(1), xqt.Int(2)), ItemsOf(xqt.Str("x"))
	mixed := unionVecs(nil, []ItemVec{vec, str})
	if mixed.Len() != 3 || mixed.At(2) != xqt.Str("x") || mixed.At(0) != xqt.Int(1) {
		t.Errorf("unionVecs = %v", mixed.Slice())
	}

	li, ri := []int32{0, 1}, []int32{5, 6}
	for _, par := range []ParOptions{{}, {Workers: 4, Threshold: 100}} {
		e := &Exec{Par: par}
		gl, gr := e.chunkPairs(2, func(lo, hi int) ([]int32, []int32) { return li, ri })
		if &gl[0] != &li[0] || &gr[0] != &ri[0] {
			t.Errorf("chunkPairs %+v copied the one chunk's pair lists", par)
		}
	}
	// several chunks: concatenated in chunk order
	e := &Exec{Par: ParOptions{Workers: 3, Threshold: 1, Slots: testutil.ForkPool(t, 3)}}
	gl, _ := e.chunkPairs(9, func(lo, hi int) ([]int32, []int32) {
		return []int32{int32(lo), int32(hi)}, []int32{0, 0}
	})
	if fmt.Sprint(gl) != "[0 3 3 6 6 9]" {
		t.Errorf("chunkPairs order = %v", gl)
	}
}

func TestChunksHelper(t *testing.T) {
	clustered := []int64{1, 1, 1, 2, 2, 3, 3, 3, 3, 4}
	unclustered := []int64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}
	one := "[[0 10]]"
	for _, tc := range []struct {
		par       ParOptions
		wantMulti bool
	}{
		{ParOptions{}, false},
		{ParOptions{Workers: 1, Threshold: 1}, false},
		{ParOptions{Workers: 4, Threshold: 11}, false}, // below the threshold
		{ParOptions{Workers: 4, Threshold: 1}, true},
	} {
		e := &Exec{Par: tc.par}
		if got := fmt.Sprint(e.chunks(10, nil)); (got != one) != tc.wantMulti {
			t.Errorf("%+v: chunks = %s", tc.par, got)
		}
		rs := e.groupChunks(clustered)
		if (len(rs) > 1) != tc.wantMulti {
			t.Errorf("%+v: groupChunks(clustered) = %v", tc.par, rs)
		}
		next := 0
		for _, r := range rs {
			if r[0] != next || (r[0] > 0 && clustered[r[0]] == clustered[r[0]-1]) {
				t.Errorf("%+v: chunk %v does not start a group", tc.par, r)
			}
			next = r[1]
		}
		if next != len(clustered) {
			t.Errorf("%+v: chunks cover %d of %d rows", tc.par, next, len(clustered))
		}
		// groups that are not adjacent cannot be cut: one chunk, always
		if got := fmt.Sprint(e.groupChunks(unclustered)); got != one {
			t.Errorf("%+v: groupChunks(unclustered) = %s", tc.par, got)
		}
	}
}

// shardedPlans builds a collection of six documents over three shards
// (4 800 attribute rows, above the default threshold) and one plan per
// chunked operator over it.
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
	attrs := &AttrStep{unary: unary{In: step}, IterCol: "iter", ItemCol: "item"}
	num := NewFun(attrs, FunNumber, "n", "item")
	cond := NewFun(AttachItem(num, "five", xqt.Double(5)), FunLt, "b", "n", "five")
	keys := NewTable([]string{"rk", "rv"}, []ColKind{KInt, KInt})
	for j := 0; j < 1200; j++ {
		keys.Col("rk").Int = append(keys.Col("rk").Int, int64(j*3%2000))
		keys.Col("rv").Int = append(keys.Col("rv").Int, int64(j))
	}
	keys.N = 1200
	numbered := &RowNum{unary: unary{In: num}, Out: "r", Mode: RankStream}
	return pool, map[string]Plan{
		"step":     step,
		"attrstep": attrs,
		"select":   &Select{unary: unary{In: cond}, Cond: "b"},
		"aggr-sum": &Aggr{unary: unary{In: num}, Part: "iter", Op: AggSum, Arg: "n", Out: "s"},
		"aggr-max": &Aggr{unary: unary{In: num}, Part: "iter", Op: AggMax, Arg: "n", Out: "m"},
		"rownum":   &RowNum{unary: unary{In: num}, Out: "r", Part: "iter", Mode: RankSeq},
		"hashjoin": NewHashJoin(numbered, &Lit{Tab: keys}, "r", "rk", Refs("iter", "n", "r"), Refs("rv")),
	}
}

// The output of every chunked operator is the one-chunk output, whatever
// the chunk count.
func TestChunkedOutputEqualsOneChunk(t *testing.T) {
	pool, plans := shardedPlans(t)
	slots := testutil.ForkPool(t, 4)
	for name, p := range plans {
		ref, err := NewExec(pool, nil).Run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref.N == 0 {
			t.Fatalf("%s: empty reference output", name)
		}
		for _, workers := range []int{1, 4} {
			for _, threshold := range []int{1, DefaultParThreshold} {
				ex := NewExec(pool, nil)
				ex.Par = ParOptions{Workers: workers, Threshold: threshold, Slots: slots}
				got, err := ex.Run(p)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, ex.Par, err)
				}
				if !tablesEqual(ref, got) {
					t.Errorf("%s: output under %+v differs from the one-chunk output", name, ex.Par)
				}
			}
		}
	}
}

// Every chunk starts with a poll: an execution that is already cancelled
// or over budget runs no chunk body, in any operator — Select included,
// whose partitioned loop used to poll nowhere.
func TestChunksObserveCancelAndBudget(t *testing.T) {
	pool, plans := shardedPlans(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	spent := func() *MemBudget {
		m := NewMemBudget(1)
		m.Charge(2)
		return m
	}
	for _, par := range []ParOptions{{}, {Workers: 4, Threshold: 1, Slots: testutil.ForkPool(t, 4)}} {
		for name, stop := range map[string]func(e *Exec){
			"cancel": func(e *Exec) { e.Ctx, e.done = cancelled, cancelled.Done() },
			"budget": func(e *Exec) { e.Mem = spent() },
		} {
			e := &Exec{Par: par}
			stop(e)
			ran := 0
			e.forChunks(e.chunks(1000, nil), func(_, _, _ int) { ran++ })
			e.forTasks(3, func(int) { ran++ })
			e.forCols(1000, 3, func(int) { ran++ })
			if ran != 0 {
				t.Errorf("%s %+v: %d chunk bodies ran on a stopped execution", name, par, ran)
			}

			// Select on its own: no row is tested, no row selected (a spent
			// budget refuses its first column)
			in := NewTable([]string{"b"}, []ColKind{KBool})
			in.N = 5000
			in.Col("b").Bool = make([]bool, in.N)
			e = NewExec(pool, nil)
			e.Par = par
			stop(e)
			if out, err := e.runOp(&Select{Cond: "b", Neg: true}, []*Table{in}); err == nil && out.N != 0 {
				t.Errorf("%s %+v: Select produced %d rows on a stopped execution", name, par, out.N)
			}
		}
		// and whole plans surface the stop as the execution's error, whichever
		// operator it interrupts
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
			e.Par = par
			e.Ctx, e.done = cancelled, cancelled.Done()
			out, err := e.apply(p, ins)
			if err == nil && out.N != 0 && name != "rownum" {
				t.Errorf("%s %+v: cancelled operator produced %d rows", name, par, out.N)
			}
			e = NewExec(pool, nil)
			e.Par = par
			e.Mem = NewMemBudget(64)
			if _, err := e.Run(p); !xqerr.IsResourceLimit(err) {
				t.Errorf("%s %+v: err = %v, want the resource limit", name, par, err)
			}
			e = NewExec(pool, nil)
			e.Par = par
			e.Ctx = cancelled
			if _, err := e.Run(p); !errors.Is(err, context.Canceled) {
				t.Errorf("%s %+v: err = %v, want context.Canceled", name, par, err)
			}
		}
	}
}

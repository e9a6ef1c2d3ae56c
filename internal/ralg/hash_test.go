package ralg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mxq/internal/xqt"
)

// kvTable is the two-column integer table (k, v).
func kvTable(k, v []int64) *Table {
	return tableOf([]string{"k", "v"}, uniformIntCol(k), uniformIntCol(v))
}

// An existential eq join's hash table is counted apart from the
// equi-join's: running one moves ExistHashJoins and neither HashJoins
// nor PosJoins.
func TestExistEqJoinCountsApart(t *testing.T) {
	l := seqTable([]int64{1, 2, 2}, []int64{1, 1, 2}, []xqt.Item{xqt.Int(20), xqt.Int(30), xqt.Int(20)})
	r := seqTable([]int64{1, 2}, []int64{1, 1}, []xqt.Item{xqt.Int(20), xqt.Int(30)})
	j := &ExistJoin{binary: binary{L: &Lit{Tab: l}, R: &Lit{Tab: r}},
		Cmp: xqt.CmpEq, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item", Out1: "a", Out2: "b"}
	e := NewExec(nil, nil)
	defer e.Release()
	out, err := e.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats; out.N != 3 || st.ExistHashJoins != 1 || st.HashJoins != 0 || st.PosJoins != 0 {
		t.Errorf("%d pairs; %d existential hash, %d hash and %d positional joins, want 3; 1, 0 and 0",
			out.N, st.ExistHashJoins, st.HashJoins, st.PosJoins)
	}
}

// The bucket-chained build table must pair every left row with its
// matching right rows in right-input order — byte for byte what the
// nested loop yields — on skewed, duplicate-heavy and colliding keys.
func TestHashJoinSkewedKeysMatchNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := map[string]func() int64{
		"hot key":       func() int64 { return int64(rng.Intn(10) / 7 * (1 + rng.Intn(40))) }, // 70 % zeros
		"few keys":      func() int64 { return int64(rng.Intn(5)) - 2 },
		"wide":          func() int64 { return rng.Int63() - rng.Int63() },
		"same bucket":   func() int64 { return int64(rng.Intn(30)) << 40 },
		"dense ascents": func() int64 { return int64(rng.Intn(3000)) },
	}
	for name, key := range shapes {
		nl, nr := 300+rng.Intn(300), 2500+rng.Intn(500)
		lk, lv, rk, rv := make([]int64, nl), make([]int64, nl), make([]int64, nr), make([]int64, nr)
		for i := range lk {
			lk[i], lv[i] = key(), int64(i)
		}
		for j := range rk {
			rk[j], rv[j] = key(), int64(j)
		}
		var wantL, wantR []int64
		for i := range lk {
			for j := range rk {
				if lk[i] == rk[j] {
					wantL, wantR = append(wantL, lv[i]), append(wantR, rv[j])
				}
			}
		}
		join := &HashJoin{LKey: "k", RKey: "k", LCols: []ColRef{{Src: "v", Dst: "lv"}}, RCols: []ColRef{{Src: "v", Dst: "rv"}}}
		e := &Exec{}
		out, err := e.execHashJoin(join, kvTable(lk, lv), kvTable(rk, rv))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out.Ints("lv"), wantL) || !slices.Equal(out.Ints("rv"), wantR) {
			t.Errorf("%s: %d pairs differ from the nested loop's %d", name, out.N, len(wantL))
		}
		if e.Stats.HashJoins != 1 {
			t.Errorf("%s: hash joins %d", name, e.Stats.HashJoins)
		}
		e.Release()
	}
}

// The equi-join reads its body off the keys: a right key run b, b+1, …
// is looked up positionally, so is a left run when the right keys
// ascend, anything else is hashed. Every body must give the nested
// loop's pairs in left-major order.
func TestHashJoinFindsPositionalRun(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	run := func(base int64, n int) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = base + int64(i)
		}
		return ks
	}
	// probe draws n keys around [base, base+span), some outside
	probe := func(base int64, span, n int) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = base + int64(rng.Intn(span+4)) - 2
		}
		return ks
	}
	ascending := func(ks []int64) []int64 { slices.Sort(ks); return ks }
	type joinCase struct {
		l, r []int64
		pos  bool
	}
	cases := map[string]joinCase{
		"single right row":           {probe(7, 1, 20), run(7, 1), true},
		"single left row":            {run(-3, 1), ascending(probe(-3, 1, 9)), true},
		"both empty":                 {nil, nil, false},
		"empty left, right run":      {nil, run(4, 5), true},
		"empty right, left run":      {run(4, 5), nil, true},
		"empty right, left unrun":    {[]int64{2, 9}, nil, false},
		"right run to max":           {[]int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 2, 0}, run(math.MaxInt64-2, 3), true},
		"right wraps past max":       {[]int64{math.MinInt64, math.MaxInt64}, []int64{math.MaxInt64, math.MinInt64}, false},
		"left run from min":          {run(math.MinInt64, 3), []int64{math.MinInt64, math.MinInt64 + 2, math.MaxInt64}, true},
		"dense left, unsorted right": {run(1, 50), []int64{3, 1, 2, 40, 2}, false},
		"right duplicates":           {probe(0, 30, 40), ascending(probe(0, 30, 60)), false},
		"left run, right duplicates": {run(-20, 30), ascending(probe(-20, 30, 60)), true},
	}
	for i := range 8 {
		base, n := rng.Int63n(2_000_000)-1_000_000, 1+rng.Intn(300)
		cases[fmt.Sprintf("right run %d", i)] = joinCase{probe(base, n, 400), run(base, n), true}
		cases[fmt.Sprintf("left run %d", i)] = joinCase{run(base, n), ascending(probe(base, n, 400)), true}
		gap := run(base, n+2)
		gap = append(gap[:n/2+1], gap[n/2+2:]...)
		cases[fmt.Sprintf("right gap %d", i)] = joinCase{probe(base, n, 400), gap, false}
		cases[fmt.Sprintf("left gap %d", i)] = joinCase{gap, ascending(probe(base, n, 400)), false}
	}
	for name, c := range cases {
		lv, rv := make([]int64, len(c.l)), make([]int64, len(c.r))
		for i := range lv {
			lv[i] = int64(i)
		}
		for j := range rv {
			rv[j] = int64(j)
		}
		var wantL, wantR []int64
		for i := range c.l {
			for j := range c.r {
				if c.l[i] == c.r[j] {
					wantL, wantR = append(wantL, lv[i]), append(wantR, rv[j])
				}
			}
		}
		join := &HashJoin{LKey: "k", RKey: "k", LCols: []ColRef{{Src: "v", Dst: "lv"}}, RCols: []ColRef{{Src: "v", Dst: "rv"}}}
		e := &Exec{}
		out, err := e.execHashJoin(join, kvTable(c.l, lv), kvTable(c.r, rv))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out.Ints("lv"), wantL) || !slices.Equal(out.Ints("rv"), wantR) {
			t.Errorf("%s: pairs (%v, %v), the nested loop gives (%v, %v)", name, out.Ints("lv"), out.Ints("rv"), wantL, wantR)
		}
		if pos := e.Stats.PosJoins == 1 && e.Stats.HashJoins == 0; pos != c.pos || e.Stats.PosJoins+e.Stats.HashJoins != 1 {
			t.Errorf("%s: %d positional and %d hash joins, want positional %v", name, e.Stats.PosJoins, e.Stats.HashJoins, c.pos)
		}
		e.Release()
	}
}

// The key table answers membership exactly for dense spans (a bucket per
// key), sparse spans (hashed buckets) and spans that overflow int64; Diff
// and CoverCheck on top of it agree with the definition.
func TestKeySetSparseAndDenseSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := map[string][]int64{
		"empty":    {},
		"dense":    {10, 11, 13, 13, 12, 30},
		"negative": {-5, -9, -7, 3},
		"sparse":   {1, 1 << 40, -(1 << 50)},
		"extremes": {math.MinInt64, math.MaxInt64, 0},
		"single":   {math.MaxInt64},
	}
	big := make([]int64, 6000)
	for i := range big {
		big[i] = int64(rng.Intn(20000)) - 10000
	}
	cases["big dense"] = big
	for name, keys := range cases {
		e := &Exec{}
		s := newKeyTable(e, keys, true)
		if wantDense := name != "sparse" && name != "extremes" && name != "empty"; (s.shift == 0) != wantDense {
			t.Errorf("%s: dense = %v, want %v", name, s.shift == 0, wantDense)
		}
		probes := append([]int64{math.MinInt64, -10001, -1, 0, 1, 14, 39, 41, 1 << 40, math.MaxInt64}, keys...)
		for i := 0; i < 200; i++ {
			probes = append(probes, int64(rng.Intn(24000))-12000)
		}
		for _, k := range probes {
			if got, want := s.find(k) != 0, slices.Contains(keys, k); got != want {
				t.Fatalf("%s: find(%d) = %v, want %v", name, k, got, want)
			}
		}

		l := intTable("k", probes...)
		diff := e.execDiff(&Diff{LKey: "k", RKey: "k"}, l, intTable("k", keys...))
		var want []int64
		for _, k := range probes {
			if !slices.Contains(keys, k) {
				want = append(want, k)
			}
		}
		if !slices.Equal(diff.Ints("k"), want) {
			t.Errorf("%s: Diff kept %d rows, want %d", name, diff.N, len(want))
		}
		in := intTable("p", keys...)
		if _, err := e.execCoverCheck(&CoverCheck{LoopIter: "k", Part: "p", Fn: "f"}, intTable("k", keys...), in); err != nil {
			t.Errorf("%s: CoverCheck rejected its own keys: %v", name, err)
		}
		if _, err := e.execCoverCheck(&CoverCheck{LoopIter: "k", Part: "p", Fn: "f"}, intTable("k", 7777777), in); err == nil {
			t.Errorf("%s: CoverCheck missed an uncovered iteration", name)
		}
		e.Release()
	}
}

package ralg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kvTable is the two-column integer table (k, v).
func kvTable(k, v []int64) *Table {
	return tableOf([]string{"k", "v"}, uniformIntCol(k), uniformIntCol(v))
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

// keySet answers membership exactly for dense spans (the bitmap), sparse
// spans (the map) and spans that overflow int64; Diff and CoverCheck on
// top of it agree with the definition.
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
		s := e.newKeySet(keys)
		if wantBitmap := name != "sparse" && name != "extremes" && name != "empty"; (s.bits != nil) != wantBitmap {
			t.Errorf("%s: bitmap = %v, want %v", name, s.bits != nil, wantBitmap)
		}
		probes := append([]int64{math.MinInt64, -10001, -1, 0, 1, 14, 39, 41, 1 << 40, math.MaxInt64}, keys...)
		for i := 0; i < 200; i++ {
			probes = append(probes, int64(rng.Intn(24000))-12000)
		}
		for _, k := range probes {
			if got, want := s.has(k), slices.Contains(keys, k); got != want {
				t.Fatalf("%s: has(%d) = %v, want %v", name, k, got, want)
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

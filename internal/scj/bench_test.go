package scj

import (
	"sync"
	"testing"

	"mxq/internal/store"
	"mxq/internal/xmark"
)

// One benchmark per kernel family on the XMark factor-0.1 document, each
// with a single-iteration context and with every context node in an
// iteration of its own. Besides ns/op and allocations each reports
// ns/touched — the cost of one document tuple visited, which is what the
// paper's |result| + |context| bound is counted in.

var benchDoc = sync.OnceValue(func() *store.Container {
	c := xmark.NewStoreContainer("auction.xml", 0.1, 1)
	c.BuildIndexes()
	return c
})

var benchSink Pairs

func benchStep(b *testing.B, ctx Pairs, axis Axis, test Test, v Variant) {
	c := benchDoc()
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Step(c, ctx, axis, test, v, &st)
	}
	if st.Touched > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Touched), "ns/touched")
	}
}

var benchRoot = Pairs{Pre: []int32{0}, Iter: []int32{0}}

// benchCtx returns the elements called name (all elements when name is
// empty, capped at limit when limit > 0) as a context of one iteration
// or, with perNode, of one iteration per node.
func benchCtx(name string, limit int, perNode bool) Pairs {
	ctx := Step(benchDoc(), benchRoot, Descendant, Test{Kind: TestElem, Name: name}, LoopLifted, nil)
	if limit > 0 && ctx.Len() > limit {
		ctx = Pairs{Pre: ctx.Pre[:limit], Iter: ctx.Iter[:limit]}
	}
	if perNode {
		for i := range ctx.Iter {
			ctx.Iter[i] = int32(i)
		}
	}
	return ctx
}

func elemTest(name string) Test { return Test{Kind: TestElem, Name: name} }

func BenchmarkDescendantScan(b *testing.B) {
	b.Run("root", func(b *testing.B) { benchStep(b, benchRoot, Descendant, elemTest(""), LoopLifted) })
	b.Run("root-text", func(b *testing.B) { benchStep(b, benchRoot, Descendant, Test{Kind: TestText}, LoopLifted) })
	b.Run("items-1iter", func(b *testing.B) { benchStep(b, benchCtx("item", 0, false), Descendant, elemTest(""), LoopLifted) })
	b.Run("items-Niter", func(b *testing.B) { benchStep(b, benchCtx("item", 0, true), Descendant, elemTest(""), LoopLifted) })
}

func BenchmarkDescendantCand(b *testing.B) {
	b.Run("root", func(b *testing.B) { benchStep(b, benchRoot, Descendant, elemTest("keyword"), CandidateList) })
	b.Run("items-1iter", func(b *testing.B) {
		benchStep(b, benchCtx("item", 0, false), Descendant, elemTest("keyword"), CandidateList)
	})
	b.Run("items-Niter", func(b *testing.B) {
		benchStep(b, benchCtx("item", 0, true), Descendant, elemTest("keyword"), CandidateList)
	})
}

func BenchmarkChildCand(b *testing.B) {
	b.Run("auctions-1iter", func(b *testing.B) {
		benchStep(b, benchCtx("open_auction", 0, false), Child, elemTest("bidder"), CandidateList)
	})
	b.Run("auctions-Niter", func(b *testing.B) {
		benchStep(b, benchCtx("open_auction", 0, true), Child, elemTest("bidder"), CandidateList)
	})
}

func BenchmarkChildLoopLifted10k(b *testing.B) {
	b.Run("1iter", func(b *testing.B) { benchStep(b, benchCtx("", 10000, false), Child, elemTest(""), LoopLifted) })
	b.Run("Niter", func(b *testing.B) { benchStep(b, benchCtx("", 10000, true), Child, elemTest(""), LoopLifted) })
}

func BenchmarkAncestor(b *testing.B) {
	b.Run("keywords-1iter", func(b *testing.B) { benchStep(b, benchCtx("keyword", 0, false), Ancestor, elemTest(""), LoopLifted) })
	b.Run("keywords-Niter", func(b *testing.B) { benchStep(b, benchCtx("keyword", 0, true), Ancestor, elemTest(""), LoopLifted) })
}

func BenchmarkFollowingSibling(b *testing.B) {
	b.Run("bidders-1iter", func(b *testing.B) {
		benchStep(b, benchCtx("bidder", 0, false), FollowingSibling, elemTest("bidder"), LoopLifted)
	})
	b.Run("bidders-Niter", func(b *testing.B) {
		benchStep(b, benchCtx("bidder", 0, true), FollowingSibling, elemTest("bidder"), LoopLifted)
	})
}

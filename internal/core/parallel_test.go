package core

import (
	"strconv"
	"strings"
	"testing"

	"mxq/internal/naive"
	"mxq/internal/scj"
	"mxq/internal/xmark"
)

// parallelTestConfig forces every parallel code path on (threshold 1,
// several workers) so that even the small test documents exercise the
// chunked operators.
func parallelTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Parallel = true
	cfg.Workers = 4
	cfg.ParallelThreshold = 1
	return cfg
}

// TestParallelDifferentialAgainstNaive runs the whole differential
// corpus through parallel execution (in several compiler ablations) and
// checks against the naive DOM oracle.
func TestParallelDifferentialAgainstNaive(t *testing.T) {
	oracle := naive.New()
	if err := oracle.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	iter := parallelTestConfig()
	iter.Compiler.ChildVariant = scj.Iterative
	iter.Compiler.DescVariant = scj.Iterative
	noPush := parallelTestConfig()
	noPush.Compiler.NametestPushdown = false
	cfgs := map[string]Config{
		"parallel-full":       parallelTestConfig(),
		"parallel-iterative":  iter,
		"parallel-nopushdown": noPush,
	}
	for cname, cfg := range cfgs {
		eng := New(cfg)
		if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
			t.Fatal(err)
		}
		for _, q := range corpus {
			want, err := oracle.QueryString(q)
			if err != nil {
				t.Fatalf("oracle failed on %s: %v", q, err)
			}
			got, err := eng.QueryString(q)
			if err != nil {
				t.Errorf("[%s] engine error on %s: %v", cname, q, err)
				continue
			}
			if got != want {
				t.Errorf("[%s] mismatch on %s:\n got  %q\n want %q", cname, q, got, want)
			}
		}
	}
}

// TestParallelXMarkDifferential is the three-way differential suite on a
// generated XMark document: serial execution, parallel execution and the
// naive DOM oracle must produce byte-identical serialized results for
// all twenty benchmark queries, including sequence and document order.
func TestParallelXMarkDifferential(t *testing.T) {
	cont := xmark.NewStoreContainer("auction.xml", 0.005, 42)
	serial := New(DefaultConfig())
	serial.LoadContainer("auction.xml", cont)
	parallel := New(parallelTestConfig())
	parallel.LoadContainer("auction.xml", cont)
	oracle := naive.New()
	oracle.LoadContainer("auction.xml", cont)
	for q := 1; q <= 20; q++ {
		query := xmark.Query(q)
		want, err := oracle.QueryString(query)
		if err != nil {
			t.Fatalf("Q%d oracle: %v", q, err)
		}
		gotS, err := serial.QueryString(query)
		if err != nil {
			t.Fatalf("Q%d serial: %v", q, err)
		}
		gotP, err := parallel.QueryString(query)
		if err != nil {
			t.Fatalf("Q%d parallel: %v", q, err)
		}
		if gotS != want {
			t.Errorf("Q%d: serial differs from oracle\n got  %.200q\n want %.200q", q, gotS, want)
		}
		if gotP != gotS {
			t.Errorf("Q%d: parallel differs from serial\n got  %.200q\n want %.200q", q, gotP, gotS)
		}
	}
}

// Plan cache behavior: LRU eviction holds the cache at
// DefaultPlanCacheSize, dropping the least recently used text first.
func TestPlanCacheLRU(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	first, _ := eng.Compile(`0`)
	last := DefaultPlanCacheSize + 1
	for i := 0; i <= last; i++ {
		if _, err := eng.Compile(strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.cache.len(); got != DefaultPlanCacheSize {
		t.Errorf("cache holds %d plans, want %d", got, DefaultPlanCacheSize)
	}
	// the most recent entry must be a hit and the oldest a miss
	// (pointer identity)
	p1, _ := eng.Compile(strconv.Itoa(last))
	p2, _ := eng.Compile(strconv.Itoa(last))
	if p1 != p2 {
		t.Error("LRU did not retain the most recent plan")
	}
	if again, _ := eng.Compile(`0`); again == first {
		t.Error("LRU kept the least recently used plan past capacity")
	}
}

// TestContextDocumentIsExecutionInput is the regression test for the
// stale-context-document cache hazard: the plan cache is keyed by the
// query text only, and the context document is
// resolved at execution time through the plan's ContextRoot leaf. The
// same cached entry must therefore serve both context documents — one
// plan, two answers — and flipping back must not recompile either.
func TestContextDocumentIsExecutionInput(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("a.xml", strings.NewReader(`<r><x/></r>`)); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("b.xml", strings.NewReader(`<r><x/><x/></r>`)); err != nil {
		t.Fatal(err)
	}
	q := `count(/r/x)`
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != "1" {
		t.Fatalf("against a.xml: got %q, want 1", got)
	}
	eng.SetContextDocument("b.xml")
	got, err = eng.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != "2" {
		t.Errorf("after SetContextDocument: got %q, want 2 (stale cached plan?)", got)
	}
	// one cache entry serves both documents — no per-document recompile
	if n := eng.cache.len(); n != 1 {
		t.Errorf("cache holds %d plans after the context flip, want 1", n)
	}
	// the entry is the very plan prepared up front (pointer identity),
	// and the prepared handle itself follows the flipped context too
	if p2, _ := eng.Prepare(q); p2.cq != prep.cq {
		t.Error("context flip evicted or replaced the cached plan")
	}
	s, err := prep.ExecuteString(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s != "2" {
		t.Errorf("prepared handle after SetContextDocument: got %q, want 2", s)
	}
	eng.SetContextDocument("a.xml")
	if s, _ = prep.ExecuteString(nil); s != "1" {
		t.Errorf("prepared handle after flipping back: got %q, want 1", s)
	}
}

// Results must stay valid after later loads and queries: each query pins
// its own pool snapshot and transient container.
func TestResultOutlivesLaterQueries(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	r1, err := eng.Query(`<x n="{count(//item)}">{/site/people/person[1]/name/text()}</x>`)
	if err != nil {
		t.Fatal(err)
	}
	before := r1.String()
	if _, err := eng.Query(`<y>{count(//person)}</y>`); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("other.xml", strings.NewReader(`<z/>`)); err != nil {
		t.Fatal(err)
	}
	if after := r1.String(); after != before {
		t.Errorf("result changed after later activity:\n before %q\n after  %q", before, after)
	}
}

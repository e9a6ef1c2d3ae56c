package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentQueriesAndLoads is the concurrency stress test: many
// goroutines issue a mixed query load against one Engine while a writer
// keeps loading new documents. Every result
// must equal the single-threaded answer, and the whole test must be
// race-clean under `go test -race`.
func TestConcurrentQueriesAndLoads(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`count(//item)`,
		`/site/people/person/name/text()`,
		`for $p in /site/people/person where $p/homepage return $p/name/text()`,
		`sum(for $a in /site/closed_auctions/closed_auction return $a/price/text() * 1)`,
		`<results>{for $p in /site/people/person return <p>{$p/name/text()}</p>}</results>`,
		`for $i in /site/regions//item order by $i/name/text() return $i/name/text()`,
		`count(/site//keyword/ancestor::item)`,
		`distinct-values(for $b in //bidder return $b/personref/@person)`,
		`for $t in /site/closed_auctions/closed_auction, $p in /site/people/person where $t/buyer/@person = $p/@id return $p/name/text()`,
		`//open_auction[bidder[personref/@person = "person0"]]/@id`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		w, err := eng.QueryString(q)
		if err != nil {
			t.Fatalf("precompute %s: %v", q, err)
		}
		want[i] = w
	}

	const readers = 8
	const iterations = 25
	const loads = 16
	var wg sync.WaitGroup
	errCh := make(chan error, readers*iterations+loads)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := (g + i) % len(queries)
				got, err := eng.QueryString(queries[k])
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %s: %v", g, queries[k], err)
					return
				}
				if got != want[k] {
					errCh <- fmt.Errorf("reader %d: %s:\n got  %q\n want %q", g, queries[k], got, want[k])
					return
				}
			}
		}(g)
	}

	// writer: loads new documents concurrently and immediately queries
	// them via doc() — its own loads are visible to its own queries
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loads; i++ {
			name := fmt.Sprintf("extra%d.xml", i)
			doc := fmt.Sprintf(`<extra n="%d"><item/><item/></extra>`, i)
			if err := eng.LoadXML(name, strings.NewReader(doc)); err != nil {
				errCh <- fmt.Errorf("load %s: %v", name, err)
				return
			}
			got, err := eng.QueryString(fmt.Sprintf(`count(doc(%q)//item)`, name))
			if err != nil {
				errCh <- fmt.Errorf("query %s: %v", name, err)
				return
			}
			if got != "2" {
				errCh <- fmt.Errorf("doc(%q): got %q, want 2", name, got)
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentCompileSharesPlans hammers the plan cache from many
// goroutines; all compilations of the same query must settle on cached
// plans without data races.
func TestConcurrentCompileSharesPlans(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf(`count(//item) + %d`, i%5)
				if _, err := eng.Compile(q); err != nil {
					t.Errorf("compile: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := eng.cache.len(); got != 5 {
		t.Errorf("cache holds %d plans, want 5", got)
	}
}

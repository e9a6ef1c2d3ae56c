package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mxq/internal/xmark"
)

// Concurrent executions on one document fill its number memo together
// (atomic stores, no lock): every one of them reads the same answers as
// an engine that ran the query alone. make check runs this under -race.
func TestConcurrentNumberMemoFill(t *testing.T) {
	q := xmark.Query(20) // income brackets: four comparisons over @income
	want, err := xmarkEngine(t, DefaultConfig(), 0.01).QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	e := xmarkEngine(t, DefaultConfig(), 0.01)
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	const clients, runs = 4, 3
	got := make([][]string, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range runs {
				s, err := p.ExecuteString(nil)
				if err != nil {
					s = err.Error()
				}
				got[c] = append(got[c], s)
			}
		}()
	}
	wg.Wait()
	for c := range got {
		for r, s := range got[c] {
			if s != want {
				t.Fatalf("client %d run %d: %q, want %q", c, r, s, want)
			}
		}
	}
}

// A repeated execution of a numeric query reads the document's values
// from its number memo instead of parsing them again. The values here are
// not numbers, and a failed parse allocates its error (two objects), so a
// warm execution that parsed its 2 000 values again would allocate some
// 4 000 objects more than one that reads them; the bound sits between.
func TestWarmNumericQueryParsesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the counts")
	}
	const n = 1000
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := range n {
		fmt.Fprintf(&doc, `<v>x%d</v><w a="y%d"/>`, i, i)
	}
	doc.WriteString("</r>")
	e := New(DefaultConfig())
	if err := e.LoadXML("n.xml", strings.NewReader(doc.String())); err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(`count(//v[. > 0]) + count(//w[@a > 0])`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if s, err := p.ExecuteString(nil); err != nil || s != "0" {
			t.Fatalf("got %q, %v; want 0", s, err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("%.0f allocations per warm execution", allocs)
	if allocs > 2*n {
		t.Errorf("a warm execution allocates %.0f objects, bound %d: it parses the values again", allocs, 2*n)
	}
}

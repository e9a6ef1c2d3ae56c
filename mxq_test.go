package mxq

import (
	"strings"
	"sync"
	"testing"
)

const bookDoc = `<books><book year="1994"><title>TCP</title></book><book year="2000"><title>Web</title></book></books>`

func TestOpenAndQuery(t *testing.T) {
	db := Open()
	if err := db.LoadDocumentString("books.xml", bookDoc); err != nil {
		t.Fatal(err)
	}
	out, err := db.QueryString(`for $b in /books/book where $b/@year >= 2000 return $b/title/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "Web" {
		t.Errorf("got %q", out)
	}
	res, err := db.Query(`/books/book`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("Len = %d", res.Len())
	}
	var sb strings.Builder
	if err := res.SerializeXML(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<title>TCP</title>") {
		t.Errorf("serialized: %s", sb.String())
	}
	if len(res.Items()) != 2 {
		t.Error("Items accessor")
	}
}

func TestOptionsTakeEffect(t *testing.T) {
	for _, opts := range [][]Option{
		nil,
		{WithJoinRecognition(false)},
		{WithOrderOptimizer(false)},
		{WithLoopLiftedSteps(false)},
		{WithNametestPushdown(false)},
	} {
		db := Open(opts...)
		if err := db.LoadDocumentString("books.xml", bookDoc); err != nil {
			t.Fatal(err)
		}
		out, err := db.QueryString(`count(//book)`)
		if err != nil {
			t.Fatal(err)
		}
		if out != "2" {
			t.Errorf("opts %v: count = %s", opts, out)
		}
	}
}

func TestLoadXMarkAndDocFunction(t *testing.T) {
	db := Open()
	db.LoadXMark("auction.xml", 0.001, 1)
	db.LoadXMark("second.xml", 0.001, 2)
	out, err := db.QueryString(`count(/site/people/person)`)
	if err != nil {
		t.Fatal(err)
	}
	if out == "0" {
		t.Error("no persons generated")
	}
	// explicit doc() access to the second document
	out2, err := db.QueryString(`count(doc("second.xml")/site/people/person)`)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != out {
		t.Logf("counts differ across seeds (ok): %s vs %s", out, out2)
	}
	if _, _, err := db.PlanStats(`count(//item)`); err != nil {
		t.Fatal(err)
	}
}

func TestQueryErrorsSurface(t *testing.T) {
	db := Open()
	if err := db.LoadDocumentString("books.xml", bookDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`for $x in`); err == nil {
		t.Error("syntax error not surfaced")
	}
	if _, err := db.Query(`$nope`); err == nil {
		t.Error("compile error not surfaced")
	}
	if _, err := db.Query(`exactly-one(())`); err == nil {
		t.Error("runtime error not surfaced")
	}
}

const siteDoc = `<site><regions><europe><item id="i0"><name>chair</name></item><item id="i1"><name>table</name></item></europe></regions><people><person id="p0"><name>Ada</name></person><person id="p1"><name>Bob</name></person></people></site>`

// One DB, many goroutines: every query runs against its own snapshot
// with its own transient state.
func TestConcurrentDBUse(t *testing.T) {
	db := Open()
	if err := db.LoadDocumentString("site.xml", siteDoc); err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{
		`count(//item)`:                      "2",
		`/site/people/person[1]/name/text()`: "Ada",
		`for $p in //person return $p/@id`:   `id="p0"id="p1"`,
		`<n c="{count(//person)}"/>`:         `<n c="2"/>`,
		`count(//name)`:                      "4",
	}
	var wg sync.WaitGroup
	for q, want := range queries {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(q, want string) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					got, err := db.QueryString(q)
					if err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
					if got != want {
						t.Errorf("%s: got %q, want %q", q, got, want)
						return
					}
				}
			}(q, want)
		}
	}
	wg.Wait()
}

// The deprecated WithParallel and WithWorkers options are accepted and
// change no result.
func TestParallelOptionMatchesSerial(t *testing.T) {
	serial := Open()
	par := Open(WithParallel(true), WithWorkers(3))
	for _, db := range []*DB{serial, par} {
		if err := db.LoadDocumentString("site.xml", siteDoc); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`//item/name/text()`,
		`for $p in //person order by $p/name/text() descending return $p/name/text()`,
		`count(//item[@id = "i1"])`,
	} {
		a, err := serial.QueryString(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		b, err := par.QueryString(q)
		if err != nil {
			t.Fatalf("with the deprecated options %s: %v", q, err)
		}
		if a != b {
			t.Errorf("%s: %q without the deprecated options, %q with them", q, a, b)
		}
	}
}

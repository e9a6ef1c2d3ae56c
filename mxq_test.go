package mxq

import (
	"strings"
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

// Example collection demonstrates sharded multi-document collections:
// LoadCollection partitions a corpus across shard containers (hashed by
// document name, loaded in parallel), collection("name") enumerates the
// corpus in collection document order, and AddToCollection extends it
// copy-on-write while queries keep running.
package main

import (
	"fmt"
	"log"

	"mxq"
)

func main() {
	db := mxq.Open()

	// A small library corpus, sharded across 3 containers.
	err := db.LoadCollection("library", 3,
		mxq.DocString("moby.xml", `<book year="1851"><title>Moby-Dick</title></book>`),
		mxq.DocString("ulysses.xml", `<book year="1922"><title>Ulysses</title></book>`),
		mxq.DocString("dune.xml", `<book year="1965"><title>Dune</title></book>`),
	)
	if err != nil {
		log.Fatal(err)
	}

	if names, ok := db.CollectionDocs("library"); ok {
		fmt.Println("documents:", names)
	}

	n, err := db.QueryString(`count(collection("library"))`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("count:", n)

	titles, err := db.QueryString(
		`for $b in collection("library")/book order by $b/title/text() return $b/title/text()`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("titles:", titles)

	// Extend the corpus; the affected shard is copied, so snapshots taken
	// by in-flight queries are unaffected.
	if err := db.AddToCollection("library",
		mxq.DocString("neuromancer.xml", `<book year="1984"><title>Neuromancer</title></book>`)); err != nil {
		log.Fatal(err)
	}
	recent, err := db.QueryString(
		`count(collection("library")/book[@year > 1900])`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("books after 1900:", recent)
}

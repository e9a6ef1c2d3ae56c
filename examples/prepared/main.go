// Prepared statements: compile an XQuery with external variables ONCE,
// then execute the same immutable plan from many goroutines, each with
// its own bindings — the serving-path pattern of the statement-centric
// API (compile cost amortized across executions, per-execution
// document snapshots, race-free by construction).
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"mxq"
)

func main() {
	db := mxq.Open()
	// a synthetic XMark auction document (~1.1 MB worth of data)
	db.LoadXMark("auction.xml", 0.01, 42)

	// one statement, compiled once: which closed auctions sold above a
	// client-supplied price threshold, tagged with the client's name?
	stmt, err := db.Prepare(`
		declare variable $client external;
		declare variable $minprice external := 0;
		<report client="{$client}">{
			count(/site/closed_auctions/closed_auction[number(price) >= $minprice])
		}</report>`)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range stmt.Vars() {
		fmt.Printf("parameter $%-9s required=%-5v singleton-default=%v\n", v.Name, v.Required, v.Singleton)
	}

	// N concurrent clients share the handle; Bind derives a private
	// statement per client, so no synchronization is needed
	const clients = 8
	results := make([]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out, err := stmt.
				Bind("client", mxq.String(fmt.Sprintf("client-%d", c))).
				Bind("minprice", mxq.Int(int64(c*25))).
				ExecString()
			if err != nil {
				results[c] = "error: " + err.Error()
				return
			}
			results[c] = out
		}(c)
	}
	wg.Wait()
	sort.Strings(results)
	for _, r := range results {
		fmt.Println(r)
	}
}

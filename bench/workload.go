package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"mxq"
	"mxq/internal/qgen"
	"mxq/internal/serve"
	"mxq/internal/xmark"
)

// scale holds every size constant of the five workloads. full is what
// the committed numbers are measured at; smoke is what bench_test.go
// runs in a few seconds.
type scale struct {
	Name        string
	PathFactor  float64 // xmark-path document
	JoinFactor  float64 // xmark-join document
	ColdFactor  float64 // compile-cold document
	ColdTexts   int     // distinct query texts per compile-cold pass
	ServeFactor float64 // serve-mix document
	ServeOps    int     // length of one client's drawn request sequence
	OneShots    int     // distinct one-shot texts in serve-mix
	BindValues  int     // distinct $min values in serve-mix
	ChurnDocs   int     // documents (and shards) of the base collection
	ChurnFactor float64 // factor of each base document
	DeltaFactor float64 // factor of the document every add registers
	AddEvery    time.Duration
	MinSetups   int // set-ups per run, at least; setup_s is their median
	// Set-ups repeat until this much time is spent on them, see setUp.
	SetupBudget time.Duration
}

var (
	fullScale = scale{
		Name: "full", PathFactor: 0.5, JoinFactor: 0.04, ColdFactor: 0.001, ColdTexts: 1000,
		ServeFactor: 0.02, ServeOps: 1000, OneShots: 64, BindValues: 32,
		ChurnDocs: 8, ChurnFactor: 0.02, DeltaFactor: 0.0005, AddEvery: 100 * time.Millisecond,
		MinSetups: 5, SetupBudget: 1500 * time.Millisecond,
	}
	smokeScale = scale{
		Name: "smoke", PathFactor: 0.004, JoinFactor: 0.004, ColdFactor: 0.001, ColdTexts: 40,
		ServeFactor: 0.002, ServeOps: 100, OneShots: 8, BindValues: 4,
		ChurnDocs: 4, ChurnFactor: 0.002, DeltaFactor: 0.0005, AddEvery: 10 * time.Millisecond,
		MinSetups: 1,
	}
)

const (
	docName    = "auction.xml"
	collName   = "xmark"
	deltaSeed  = 1000 // offset of the added document's generator seed
	corpusSeed = 1    // qgen seed of the generated query texts
	maxSetups  = 40
)

// axisProbes defeat the element-name index: wildcard, text and reverse
// or sibling axes go through the staircase join proper.
var axisProbes = []string{
	`count(/site//*)`,
	`count(//text())`,
	`count(//keyword/ancestor::*)`,
	`count(//bidder/following-sibling::bidder)`,
	`count(/site/regions/*/item/description//*)`,
	`count(//listitem//keyword)`,
}

// serveStmts are the cheap XMark queries serve-mix prepares over the wire.
var serveStmts = []int{1, 2, 5, 6, 13, 15, 17, 20}

const minPriceQuery = `declare variable $min external;
for $a in /site/closed_auctions/closed_auction
where number($a/price) >= $min
return $a/price/text()`

// churnQueries are the five collection() queries of `xmarkbench
// -experiment collection`; names wraps each hit in an element so that
// a result can be split and compared as a multiset (adds reorder the
// collection's documents).
var churnQueries = []struct{ id, q string }{
	{"count-person", `count(collection("xmark")/site/people/person)`},
	{"desc-item", `count(collection("xmark")//item)`},
	{"names", `for $p in collection("xmark")/site/people/person where $p/@id = "person0" return <n>{$p/name/text()}</n>`},
	{"sum-per-doc", `sum(for $d in collection("xmark") return count($d/site/regions//item))`},
	{"closed-auct", `count(collection("xmark")/site/closed_auctions/closed_auction[price > 40])`},
}

// corpus says which documents the oracle evaluates a reference over.
type corpus int

const (
	corpusDoc   corpus = iota // the workload's single XMark document
	corpusBase                // collection-churn's base collection
	corpusDelta               // a collection holding only the added document
)

// refSpec is one reference output the oracle must produce: a query,
// optionally a $min binding, over one corpus.
type refSpec struct {
	ID     string // latency class the reference belongs to
	Query  string
	Min    *int64
	Corpus corpus
	// Optional marks a generated candidate: if the oracle raises an
	// error on it the workload drops it instead of failing, so that no
	// operation of a run fails by construction.
	Optional bool
	// Raw asks the oracle for the output text beside its digest.
	Raw bool
}

// inputs are everything a run derives from its seed before the engine
// under test is opened.
type inputs struct {
	Seed   int64
	Scale  scale
	Factor float64 // the main document (or each base collection document)
	Refs   []refSpec
}

// op is one operation of a client's program.
type op struct {
	class int // latency class: index into env.classes
	ref   int // expected output: index into env.want; -1 when check decides
	run   func(sink *bytes.Buffer) error
}

// stmt is one distinct statement of a workload, for the traced run.
type stmt struct {
	class int
	query string
	ref   int
}

// env is one set-up instance of a workload.
type env struct {
	db      *mxq.DB
	ctxDoc  string
	classes []string
	want    []oracleOut // reference per op.ref
	clients [][]op      // one program per client, cycled
	stmts   []stmt      // distinct statements in pass order
	// wholePasses makes a client finish its program before it stops,
	// keeping the class mix of single-client runs exactly balanced.
	wholePasses bool
	oneShot     bool // statements are compiled per call (compile-cold)
	stop        func()
	base        string // serve-mix: http://host:port
	churn       *churn
}

func (e *env) close() {
	if e.stop != nil {
		e.stop()
	}
}

type workload struct {
	name   string
	why    string
	inputs func(seed int64, sc scale) *inputs
	setup  func(in *inputs, want []oracleOut) (*env, error)
}

var workloads = []workload{
	{
		name: "xmark-path",
		why:  "XMark Q1-7, Q13-20 and six axis probes, prepared, on one large document: ralg non-join operators, scj and serialization; no compile, sched or serve",
		inputs: func(seed int64, sc scale) *inputs {
			return &inputs{Seed: seed, Scale: sc, Factor: sc.PathFactor, Refs: pathQueries()}
		},
		setup: setupPrepared,
	},
	{
		name: "xmark-join",
		why:  "XMark Q8-12 prepared on a mid-size document: hash, theta and existential joins, sorts and a large result; ralg join kernels dominate, scj is marginal",
		inputs: func(seed int64, sc scale) *inputs {
			return &inputs{Seed: seed, Scale: sc, Factor: sc.JoinFactor, Refs: joinQueries()}
		},
		setup: setupPrepared,
	},
	{
		name:   "compile-cold",
		why:    "a cycle of distinct query texts longer than the plan cache on a tiny document: every call parses, compiles and optimizes; execution is trivial",
		inputs: coldInputs,
		setup:  setupCold,
	},
	{
		name:   "serve-mix",
		why:    "nproc keep-alive HTTP clients on a small document, 80% prepared exec, 10% typed bind, 10% one-shot: per-request fixed cost of serve, sched and core under concurrency",
		inputs: serveInputs,
		setup:  setupServe,
	},
	{
		name:   "collection-churn",
		why:    "a closed-loop reader of five collection() queries while a writer adds a document every 100 ms: copy-on-write adds, snapshots and the memory superseded shards pin",
		inputs: churnInputs,
		setup:  setupChurn,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func pathQueries() []refSpec {
	var qs []refSpec
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18, 19, 20} {
		qs = append(qs, refSpec{ID: fmt.Sprintf("Q%d", n), Query: xmark.Query(n)})
	}
	for i, q := range axisProbes {
		qs = append(qs, refSpec{ID: fmt.Sprintf("A%d", i+1), Query: q})
	}
	return qs
}

func joinQueries() []refSpec {
	var qs []refSpec
	for n := 8; n <= 12; n++ {
		qs = append(qs, refSpec{ID: fmt.Sprintf("Q%d", n), Query: xmark.Query(n)})
	}
	return qs
}

func setupPrepared(in *inputs, want []oracleOut) (*env, error) {
	db := mxq.Open()
	db.LoadXMark(docName, in.Factor, in.Seed)
	e := &env{db: db, ctxDoc: docName, want: want, wholePasses: true}
	var prog []op
	for i, r := range in.Refs {
		st, err := db.Prepare(r.Query)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", r.ID, err)
		}
		e.classes = append(e.classes, r.ID)
		e.stmts = append(e.stmts, stmt{class: i, query: r.Query, ref: i})
		prog = append(prog, op{class: i, ref: i, run: func(sink *bytes.Buffer) error { return execInto(st, sink) }})
	}
	e.clients = [][]op{prog}
	return e, nil
}

// execInto executes a prepared statement and serializes its result.
func execInto(st *mxq.Stmt, sink *bytes.Buffer) error {
	res, err := st.Exec()
	if err != nil {
		return err
	}
	return res.SerializeXML(sink)
}

// generated returns n+n/4 distinct qgen texts: a quarter more than
// needed, so that candidates the oracle rejects can be dropped. The
// texts are a fixed corpus, like the XMark queries, not a function of
// the run's seed: a few generated shapes cost a thousand times the
// median to optimize (README.md, "What the baseline shows"), and how
// many of them a seed happened to draw would decide the throughput.
// The seed picks the document the texts run against, the order of the
// cycle, the bind values and the client mix.
func generated(n int) []string {
	g := qgen.New(corpusSeed, nil)
	seen := make(map[string]bool)
	var out []string
	for len(out) < n+n/4 {
		q := g.Query()
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

func coldInputs(seed int64, sc scale) *inputs {
	in := &inputs{Seed: seed, Scale: sc, Factor: sc.ColdFactor}
	for i, q := range xmark.Queries {
		in.Refs = append(in.Refs, refSpec{ID: fmt.Sprintf("X%d", i+1), Query: q})
	}
	for i, q := range generated(sc.ColdTexts - len(xmark.Queries)) {
		in.Refs = append(in.Refs, refSpec{ID: fmt.Sprintf("G%04d", i), Query: q, Optional: true})
	}
	return in
}

func setupCold(in *inputs, want []oracleOut) (*env, error) {
	db := mxq.Open()
	db.LoadXMark(docName, in.Factor, in.Seed)
	e := &env{db: db, ctxDoc: docName, want: want, wholePasses: true, oneShot: true}
	var prog []op
	for i, r := range in.Refs {
		if want[i].Err || len(prog) == in.Scale.ColdTexts {
			continue
		}
		q := r.Query
		c := len(e.classes)
		e.classes = append(e.classes, r.ID)
		e.stmts = append(e.stmts, stmt{class: c, query: q, ref: i})
		prog = append(prog, op{class: c, ref: i, run: func(sink *bytes.Buffer) error {
			res, err := db.Query(q)
			if err != nil {
				return err
			}
			return res.SerializeXML(sink)
		}})
	}
	if len(prog) < in.Scale.ColdTexts {
		return nil, fmt.Errorf("only %d of %d query texts survived the oracle", len(prog), in.Scale.ColdTexts)
	}
	rand.New(rand.NewSource(in.Seed)).Shuffle(len(prog), func(i, j int) {
		prog[i], prog[j] = prog[j], prog[i]
		e.stmts[i], e.stmts[j] = e.stmts[j], e.stmts[i]
	})
	e.clients = [][]op{prog}
	return e, nil
}

// serveInputs lays the references out as: the eight prepared
// statements, BindValues $min bindings, then the one-shot candidates.
func serveInputs(seed int64, sc scale) *inputs {
	in := &inputs{Seed: seed, Scale: sc, Factor: sc.ServeFactor}
	for _, n := range serveStmts {
		in.Refs = append(in.Refs, refSpec{ID: fmt.Sprintf("Q%d", n), Query: xmark.Query(n)})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, v := range rng.Perm(200)[:sc.BindValues] {
		min := int64(v)
		in.Refs = append(in.Refs, refSpec{ID: "min", Query: minPriceQuery, Min: &min})
	}
	for _, q := range generated(sc.OneShots) {
		in.Refs = append(in.Refs, refSpec{ID: "oneshot", Query: q, Optional: true})
	}
	return in
}

// startServer serves db the way mxqd does, on a loopback listener, and
// returns its base URL and a stop function that returns once the
// server goroutine has exited.
func startServer(db *mxq.DB) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: serve.New(db, serve.Config{}).Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed at stop
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			_ = hs.Close()
		}
		<-served
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func setupServe(in *inputs, want []oracleOut) (*env, error) {
	sc := in.Scale
	nproc := runtime.NumCPU()
	db := mxq.Open(mxq.WithParallel(true), mxq.WithWorkers(nproc))
	db.LoadXMark(docName, in.Factor, in.Seed)
	base, stopServer, err := startServer(db)
	if err != nil {
		return nil, err
	}
	e := &env{db: db, ctxDoc: docName, want: want, base: base}
	var transports []*http.Transport
	e.stop = func() {
		for _, t := range transports {
			t.CloseIdleConnections()
		}
		stopServer()
	}

	setupClient := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	transports = append(transports, setupClient.Transport.(*http.Transport))
	ids := make([]string, 0, len(serveStmts)+1)
	minClass, shotClass := len(serveStmts), len(serveStmts)+1
	for i := 0; i <= minClass; i++ { // ref minClass is the first $min binding
		id, err := wirePrepare(setupClient, e.base, in.Refs[i].Query)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("wire prepare %s: %w", in.Refs[i].ID, err)
		}
		ids = append(ids, id)
		e.classes = append(e.classes, in.Refs[i].ID)
		e.stmts = append(e.stmts, stmt{class: i, query: in.Refs[i].Query, ref: i})
	}
	e.classes = append(e.classes, "oneshot")
	firstShot := len(serveStmts) + sc.BindValues
	var shots []int // refs of the surviving one-shot texts
	for i := firstShot; i < len(in.Refs) && len(shots) < sc.OneShots; i++ {
		if !want[i].Err {
			shots = append(shots, i)
			e.stmts = append(e.stmts, stmt{class: shotClass, query: in.Refs[i].Query, ref: i})
		}
	}
	if len(shots) < sc.OneShots {
		e.close()
		return nil, fmt.Errorf("only %d of %d one-shot texts survived the oracle", len(shots), sc.OneShots)
	}

	for c := 0; c < nproc; c++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		transports = append(transports, tr)
		hc := &http.Client{Transport: tr}
		rng := rand.New(rand.NewSource(in.Seed*7919 + int64(c)))
		prog := make([]op, sc.ServeOps)
		for i := range prog {
			switch r := rng.Intn(10); {
			case r < 8:
				k := rng.Intn(len(serveStmts))
				url := e.base + "/stmt/" + ids[k] + "/exec"
				prog[i] = op{class: k, ref: k, run: func(sink *bytes.Buffer) error {
					return wirePost(hc, url, []byte("{}"), sink)
				}}
			case r == 8:
				ref := len(serveStmts) + rng.Intn(sc.BindValues)
				url := e.base + "/stmt/" + ids[minClass] + "/exec"
				body := []byte(fmt.Sprintf(`{"binds":{"min":%d}}`, *in.Refs[ref].Min))
				prog[i] = op{class: minClass, ref: ref, run: func(sink *bytes.Buffer) error {
					return wirePost(hc, url, body, sink)
				}}
			default:
				ref := shots[rng.Intn(len(shots))]
				body, err := json.Marshal(map[string]string{"query": in.Refs[ref].Query})
				if err != nil {
					e.close()
					return nil, err
				}
				url := e.base + "/query"
				prog[i] = op{class: shotClass, ref: ref, run: func(sink *bytes.Buffer) error {
					return wirePost(hc, url, body, sink)
				}}
			}
		}
		e.clients = append(e.clients, prog)
	}
	return e, nil
}

// wirePost sends one request and reads the whole body into sink; the
// operation ends when the last body byte is read.
func wirePost(hc *http.Client, url string, body []byte, sink *bytes.Buffer) error {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := sink.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(sink.String()))
	}
	return nil
}

func wirePrepare(hc *http.Client, base, query string) (string, error) {
	body, err := json.Marshal(map[string]string{"query": query})
	if err != nil {
		return "", err
	}
	var sink bytes.Buffer
	if err := wirePost(hc, base+"/prepare", body, &sink); err != nil {
		return "", err
	}
	var pr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sink.Bytes(), &pr); err != nil {
		return "", err
	}
	return pr.ID, nil
}

// churn is the writer side of collection-churn and the state its
// snapshot invariant is checked against.
type churn struct {
	db       *mxq.DB
	deltaXML string
	every    time.Duration
	nextDoc  atomic.Int64 // fresh document names across warm-up and run
	issued   atomic.Int64 // adds started
	done     atomic.Int64 // adds registered
	base     [5]churnRef
	delta    [5]churnRef
	// reader goroutine only:
	doneAtStart int64 // adds registered when the current read began
	lastK       int64 // adds the previous read saw
}

// churnInputs lays the references out as the five queries over the
// base collection, then the same five over the added document alone.
func churnInputs(seed int64, sc scale) *inputs {
	in := &inputs{Seed: seed, Scale: sc, Factor: sc.ChurnFactor}
	for _, c := range []corpus{corpusBase, corpusDelta} {
		for _, q := range churnQueries {
			in.Refs = append(in.Refs, refSpec{ID: q.id, Query: q.q, Corpus: c, Raw: true})
		}
	}
	return in
}

func deltaXML(in *inputs) string {
	var sb strings.Builder
	if err := xmark.WriteXML(&sb, in.Scale.DeltaFactor, in.Seed+deltaSeed); err != nil {
		panic(err) // a strings.Builder does not fail
	}
	return sb.String()
}

func setupChurn(in *inputs, want []oracleOut) (*env, error) {
	sc := in.Scale
	db := mxq.Open()
	db.LoadXMarkCollection(collName, sc.ChurnDocs, sc.ChurnDocs, in.Factor, in.Seed)
	ch := &churn{db: db, deltaXML: deltaXML(in), every: sc.AddEvery}
	for i := range churnQueries {
		var err error
		if ch.base[i], err = parseChurn(i, want[i].Raw); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		if ch.delta[i], err = parseChurn(i, want[len(churnQueries)+i].Raw); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	e := &env{db: db, want: want, wholePasses: true, churn: ch}
	var prog []op
	for i, q := range churnQueries {
		st, err := db.Prepare(q.q)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", q.id, err)
		}
		e.classes = append(e.classes, q.id)
		e.stmts = append(e.stmts, stmt{class: i, query: q.q, ref: -1})
		prog = append(prog, op{class: i, ref: -1, run: func(sink *bytes.Buffer) error {
			ch.doneAtStart = ch.done.Load()
			return execInto(st, sink)
		}})
	}
	e.classes = append(e.classes, "add")
	e.clients = [][]op{prog}
	return e, nil
}

// add registers one more copy of the delta document under a fresh name.
func (c *churn) add() error {
	name := fmt.Sprintf("added-%d.xml", c.nextDoc.Add(1))
	c.issued.Add(1)
	err := c.db.AddToCollection(collName, mxq.DocString(name, c.deltaXML))
	if err == nil {
		c.done.Add(1)
	}
	return err
}

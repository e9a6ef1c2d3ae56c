package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mxq"
	"mxq/internal/testutil"
	"mxq/internal/xmark"
)

// newTestServer builds a server over a small generated XMark document
// plus its in-process DB (the byte-comparison oracle).
func newTestServer(t *testing.T, cfg Config, opts ...mxq.Option) (*httptest.Server, *mxq.DB) {
	t.Helper()
	db := mxq.Open(opts...)
	db.LoadXMark("auction.xml", 0.002, 11)
	ts := httptest.NewServer(New(db, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, db
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServerDifferentialXMark is the wire-level differential test: for
// every XMark query the bytes served over HTTP must equal the
// in-process serialization exactly.
func TestServerDifferentialXMark(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	for i := 0; i < 20; i++ {
		q := xmark.Query(i + 1)
		want, err := db.QueryString(q)
		if err != nil {
			t.Fatalf("in-process Q%d: %v", i+1, err)
		}
		resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": q})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("Q%d: status %d: %s", i+1, resp.StatusCode, body)
			continue
		}
		if string(body) != want {
			t.Errorf("Q%d: wire bytes differ from in-process result", i+1)
		}
	}
}

// TestServerPreparedRoundTrip drives the prepared-statement endpoints:
// prepare once, introspect vars, exec with typed JSON binds, close.
func TestServerPreparedRoundTrip(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	const q = `declare variable $min external;
		for $a in /site/open_auctions/open_auction
		where number($a/initial) >= $min
		return $a/initial/text()`
	resp, body := postJSON(t, ts.URL+"/prepare", map[string]any{"query": q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", resp.StatusCode, body)
	}
	var pr struct {
		ID   string `json:"id"`
		Vars []struct {
			Name     string `json:"name"`
			Required bool   `json:"required"`
		} `json:"vars"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("prepare response: %v", err)
	}
	if len(pr.Vars) != 1 || pr.Vars[0].Name != "min" || !pr.Vars[0].Required {
		t.Fatalf("vars = %+v, want one required $min", pr.Vars)
	}

	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, min := range []int64{1, 5} {
		want, err := stmt.Bind("min", mxq.Int(min)).ExecString()
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/stmt/"+pr.ID+"/exec",
			map[string]any{"binds": map[string]any{"min": min}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exec min=%d: status %d: %s", min, resp.StatusCode, body)
		}
		if string(body) != want {
			t.Errorf("exec min=%d: wire bytes differ from in-process result", min)
		}
	}

	// binding an undeclared variable is a client error with its W3C code
	resp, body = postJSON(t, ts.URL+"/stmt/"+pr.ID+"/exec",
		map[string]any{"binds": map[string]any{"nope": 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("undeclared bind: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "XPST0008") {
		t.Errorf("undeclared bind response %s lacks XPST0008", body)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/stmt/"+pr.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("close: status %d", dresp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/stmt/"+pr.ID+"/exec", map[string]any{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("exec after close: status %d, want 404", resp.StatusCode)
	}
}

// TestServerBindTypes checks the JSON-to-XQuery value mapping: integer
// vs float vs string vs bool vs sequence.
func TestServerBindTypes(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	cases := []struct {
		q    string
		bind any
		want string
	}{
		{`declare variable $v external; $v + 1`, 41, "42"},
		{`declare variable $v external; $v * 2`, 1.5, "3"},
		{`declare variable $v external; concat($v, "!")`, "hi", "hi!"},
		{`declare variable $v external; not($v)`, true, "false"},
		{`declare variable $v external; sum($v)`, []any{1, 2, 3}, "6"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/query",
			map[string]any{"query": c.q, "binds": map[string]any{"v": c.bind}})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("bind %v: status %d: %s", c.bind, resp.StatusCode, body)
			continue
		}
		if string(body) != c.want {
			t.Errorf("bind %v: got %q, want %q", c.bind, body, c.want)
		}
	}
}

// TestServerErrorMapping: static errors are the client's fault (400),
// dynamic errors are execution failures (500), and both carry their
// W3C code in the JSON body.
func TestServerErrorMapping(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name   string
		query  string
		status int
		code   string
	}{
		{"parse error", `for $x in`, http.StatusBadRequest, ""},
		{"static error", `$undeclared`, http.StatusBadRequest, "XPST0008"},
		{"dynamic error", `doc("missing.xml")//x`, http.StatusInternalServerError, "FODC0002"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": c.query})
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
			continue
		}
		if c.code != "" && !strings.Contains(string(body), c.code) {
			t.Errorf("%s: body %s lacks code %s", c.name, body, c.code)
		}
	}
}

// TestServerRequestBodyBound: a request body over maxRequestBytes is a
// client error (400); the same request padded to just under it is
// served.
func TestServerRequestBodyBound(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	for _, tc := range []struct{ size, status int }{
		{maxRequestBytes, http.StatusOK},
		{maxRequestBytes + 1, http.StatusBadRequest},
	} {
		const query = `{"query":"1"`
		body := query + strings.Repeat(" ", tc.size-len(query)-1) + "}"
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%d-byte body: status %d, want %d (%s)", tc.size, resp.StatusCode, tc.status, got)
		}
	}
}

// TestLimitListener: with n connections held open, the (n+1)-th is not
// served until one of them closes, and closing the server while the
// limit is reached returns at once (the Accept waiting for a slot ends
// with the listener, not with a client).
func TestLimitListener(t *testing.T) {
	testutil.CheckGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(LimitListener(ln, n)) }()

	type client struct {
		conn net.Conn
		r    *bufio.Reader
	}
	// dial opens a keep-alive connection and sends one request on it
	dial := func() client {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(c, "GET / HTTP/1.1\r\nHost: mxqd\r\n\r\n")
		return client{c, bufio.NewReader(c)}
	}
	// answered reports whether the response arrives within wait
	answered := func(cl client, wait time.Duration) bool {
		cl.conn.SetReadDeadline(time.Now().Add(wait))
		resp, err := http.ReadResponse(cl.r, nil)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return false
		} else if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return true
	}
	var held []client
	for i := 0; i < n; i++ {
		held = append(held, dial())
		if !answered(held[i], 5*time.Second) {
			t.Fatalf("connection %d of %d not served", i+1, n)
		}
	}
	extra := dial()
	if answered(extra, 200*time.Millisecond) {
		t.Fatalf("connection %d served while %d were held open", n+1, n)
	}
	held[0].conn.Close()
	if !answered(extra, 5*time.Second) {
		t.Fatalf("connection %d not served after a held one closed", n+1)
	}
	// the limit is reached again (held[1] and extra), and Serve waits
	// for a slot
	go srv.Close()
	select {
	case err := <-served:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closing the server did not end an Accept waiting for a slot")
	}
	for _, cl := range append(held[1:], extra) {
		cl.conn.Close()
	}
}

// slowQuery runs for seconds uncancelled; with a 50ms wire timeout the
// server must answer 504 promptly, keep serving, and leak nothing.
const slowQuery = `sum(for $i in 1 to 2000 return sum(for $j in 1 to 2000 return $i * $j))`

func TestServerQueryTimeout(t *testing.T) {
	testQueryTimeout(t, Config{}, 50)
}

// A timeout_ms whose nanosecond count overflows int64 is still capped
// by MaxTimeout: it must not wrap into "no deadline".
func TestServerQueryTimeoutOverflow(t *testing.T) {
	testQueryTimeout(t, Config{MaxTimeout: 50 * time.Millisecond}, math.MaxInt64/int64(time.Millisecond)+1)
}

func testQueryTimeout(t *testing.T, cfg Config, timeoutMS int64) {
	testutil.CheckGoroutines(t)
	ts, _ := newTestServer(t, cfg, mxq.WithWorkers(4), mxq.WithParallelThreshold(1))
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/query",
		map[string]any{"query": slowQuery, "timeout_ms": timeoutMS})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout response took %v", elapsed)
	}
	// the server must still be healthy afterwards
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after timeout: %d", hresp.StatusCode)
	}
	// the cancelled execution's workers drain; testutil.CheckGoroutines
	// asserts it at cleanup, after the test server closes its conns
}

// TestServerConcurrentSessions hammers one server with N clients × M
// prepared statements; every response must be byte-identical to the
// in-process result. Run under -race this doubles as the data-race
// check on the session registry and the shared engine.
func TestServerConcurrentSessions(t *testing.T) {
	const clients = 8
	// admits every client at once: the default scheduler's 2×GOMAXPROCS
	// slots plus its queue may be fewer on a small host
	ts, db := newTestServer(t, Config{}, mxq.WithScheduler(mxq.NewScheduler(mxq.SchedulerConfig{MaxConcurrent: clients})))
	queries := []string{
		xmark.Query(1),
		xmark.Query(5),
		xmark.Query(20),
		`count(//item)`,
	}
	type session struct {
		id   string
		want string
	}
	sessions := make([]session, len(queries))
	for i, q := range queries {
		resp, body := postJSON(t, ts.URL+"/prepare", map[string]any{"query": q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prepare %d: %s", i, body)
		}
		var pr struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		want, err := db.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = session{id: pr.ID, want: want}
	}
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := sessions[(c+r)%len(sessions)]
				resp, err := http.Post(ts.URL+"/stmt/"+s.id+"/exec", "application/json",
					strings.NewReader(`{}`))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d round %d: status %d: %s", c, r, resp.StatusCode, body)
					return
				}
				if string(body) != s.want {
					errs <- fmt.Errorf("client %d round %d: bytes differ from in-process result", c, r)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// saturate occupies every execution slot of ts with a slow query and
// waits (via /metrics) until it is actually running. The returned
// function waits for the slow query to finish.
func saturate(t *testing.T, ts *httptest.Server) (wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		postSlow, _ := json.Marshal(map[string]any{"query": slowQuery, "timeout_ms": 3000})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(postSlow))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "mxqd_inflight_queries 1") {
			return func() { <-done }
		}
		if time.Now().After(deadline) {
			<-done
			t.Skip("slow query finished before the probe; cannot exercise the limit")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// oneSlot is an engine scheduler with a single execution slot and the
// given admission queue depth — the server admits through it.
func oneSlot(maxQueue int) mxq.Option {
	return mxq.WithScheduler(mxq.NewScheduler(mxq.SchedulerConfig{MaxConcurrent: 1, MaxQueue: maxQueue}))
}

// TestServerInflightLimit verifies load shedding with queueing
// disabled: with one execution slot and MaxQueue < 0, a second
// concurrent query is rejected with 503 up front. The probe query is a
// parse error — getting 503 rather than 400 proves the saturated
// server rejected it before spending any compile work on it.
func TestServerInflightLimit(t *testing.T) {
	ts, _ := newTestServer(t, Config{}, oneSlot(-1))
	wait := saturate(t, ts)
	defer wait()
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": `for $x in`})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second query: status %d: %s", resp.StatusCode, body)
	}
	// No compile happened for the rejected request.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "mxqd_compile_errors_total 0") {
		t.Errorf("rejected parse-error request was compiled:\n%s", mbody)
	}
}

// TestServerQueuedAdmission: a saturated server no longer sheds at the
// door — a request with deadline to spare waits in the admission queue
// and succeeds once the slot frees.
func TestServerQueuedAdmission(t *testing.T) {
	ts, _ := newTestServer(t, Config{}, oneSlot(0))
	wait := saturate(t, ts)
	defer wait()
	resp, body := postJSON(t, ts.URL+"/query",
		map[string]any{"query": `1+1`, "timeout_ms": 30000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queued query: status %d: %s", resp.StatusCode, body)
	}
	if string(body) != "2" {
		t.Fatalf("queued query result %q, want 2", body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "mxqd_queue_wait_seconds_count") {
		t.Errorf("metrics lack the queue wait histogram:\n%s", mbody)
	}
}

// TestServerQueueDeadline: a queued request whose deadline expires
// before a slot frees answers 503 — it did no work, so 504 (execution
// timed out) would be misleading.
func TestServerQueueDeadline(t *testing.T) {
	ts, _ := newTestServer(t, Config{}, oneSlot(0))
	wait := saturate(t, ts)
	defer wait()
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/query",
		map[string]any{"query": `1+1`, "timeout_ms": 50})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired-in-queue query: status %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("expired-in-queue response took %v", elapsed)
	}
}

// TestServerStmtEviction is the regression test for the
// prepared-statement session leak: idle statements expire under the
// TTL and a full registry evicts its LRU entry instead of wedging
// /prepare into 503.
func TestServerStmtEviction(t *testing.T) {
	db := mxq.Open()
	db.LoadXMark("auction.xml", 0.002, 11)
	srv := New(db, Config{MaxStmts: 2, StmtTTL: time.Minute})
	clock := time.Now()
	srv.now = func() time.Time { return clock }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	prepare := func(q string) string {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/prepare", map[string]any{"query": q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prepare: status %d: %s", resp.StatusCode, body)
		}
		var pr struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		return pr.ID
	}
	execStatusOf := func(id string) int {
		t.Helper()
		resp, _ := postJSON(t, ts.URL+"/stmt/"+id+"/exec", map[string]any{})
		return resp.StatusCode
	}

	// LRU overflow: the registry holds 2; preparing a third evicts the
	// least recently used (id1 — id2 was touched more recently).
	id1 := prepare(`1+1`)
	id2 := prepare(`2+2`)
	if got := execStatusOf(id2); got != http.StatusOK {
		t.Fatalf("exec id2: status %d", got)
	}
	if got := execStatusOf(id1); got != http.StatusOK { // id1 now most recent
		t.Fatalf("exec id1: status %d", got)
	}
	id3 := prepare(`3+3`)
	if got := execStatusOf(id2); got != http.StatusNotFound {
		t.Errorf("LRU-evicted id2: status %d, want 404", got)
	}
	if got := execStatusOf(id1); got != http.StatusOK {
		t.Errorf("recently used id1: status %d, want 200", got)
	}

	// Idle TTL: advance past the TTL; the next prepare sweeps both.
	clock = clock.Add(2 * time.Minute)
	id4 := prepare(`4+4`)
	for _, id := range []string{id1, id3} {
		if got := execStatusOf(id); got != http.StatusNotFound {
			t.Errorf("TTL-expired %s: status %d, want 404", id, got)
		}
	}
	if got := execStatusOf(id4); got != http.StatusOK {
		t.Errorf("fresh id4: status %d, want 200", got)
	}
	if n := srv.StmtCount(); n != 1 {
		t.Errorf("StmtCount = %d, want 1", n)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "mxqd_stmts_evicted_total 3") {
		t.Errorf("metrics lack mxqd_stmts_evicted_total 3:\n%s", mbody)
	}
}

// failingWriter is a ResponseWriter whose body writes fail — a client
// that vanished mid-stream.
type failingWriter struct{ h http.Header }

func (f *failingWriter) Header() http.Header       { return f.h }
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("client gone") }

// TestServerSerializeFailure: a result stream that fails mid-write is
// counted, and the latency histogram still gets its observation (the
// clock runs to end-of-stream).
func TestServerSerializeFailure(t *testing.T) {
	db := mxq.Open()
	db.LoadXMark("auction.xml", 0.002, 11)
	srv := New(db, Config{})
	stmt, err := db.Prepare(`1 to 100`)
	if err != nil {
		t.Fatal(err)
	}
	srv.run(nil, &failingWriter{h: make(http.Header)}, stmt)
	if got := srv.metrics.serializeFailures.Load(); got != 1 {
		t.Errorf("serializeFailures = %d, want 1", got)
	}
	if got := srv.metrics.latency.count.Load(); got != 1 {
		t.Errorf("latency count = %d, want 1 (observe must run after serialization)", got)
	}
	if got := srv.metrics.queries.Load(); got != 1 {
		t.Errorf("queries = %d, want 1", got)
	}
}

// TestServerMetrics spot-checks the exposition format.
func TestServerMetrics(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	if resp, _ := postJSON(t, ts.URL+"/query", map[string]any{"query": `1+1`}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"mxqd_queries_total 1",
		"mxqd_inflight_queries 0",
		"mxqd_query_seconds_count 1",
		"mxqd_plan_cache_misses_total",
		`mxqd_query_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output lacks %q:\n%s", want, text)
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mxq"
	"mxq/internal/faults"
	"mxq/internal/testutil"
	"mxq/internal/xmark"
)

// TestServeStreamChaos is the serving-layer leg of the chaos suite: the
// serve.stream fault point fails response-body writes mid-stream. The
// server must count each failure, stay healthy, and — once the fault is
// disarmed — serve every query of the mix byte-identical to the
// in-process oracle.
func TestServeStreamChaos(t *testing.T) {
	testutil.CheckGoroutines(t)
	t.Cleanup(faults.Reset)
	ts, db := newTestServer(t, Config{})

	want := make([]string, 20)
	for i := range want {
		w, err := db.QueryString(xmark.Query(i + 1))
		if err != nil {
			t.Fatalf("oracle Q%d: %v", i+1, err)
		}
		want[i] = w
	}

	seed := uint64(424242)
	if v := os.Getenv("MXQ_FAULTS_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("MXQ_FAULTS_SEED=%q: %v", v, err)
		}
		seed = n
	}
	faults.Reset()
	if err := faults.Enable("serve.stream", 0.5, seed, faults.ModeError); err != nil {
		t.Fatal(err)
	}
	// Under the fault, a response either arrives intact (every write
	// survived — it must equal the oracle) or is cut short. A wrong but
	// complete body would mean the fault corrupted data instead of
	// failing the write.
	failed := 0
	for i := range want {
		body, complete := postTolerant(t, ts.URL+"/query", xmark.Query(i+1))
		if complete && body == want[i] {
			continue
		}
		if complete && body != want[i] && !strings.HasPrefix(want[i], body) {
			t.Errorf("faulted Q%d: corrupted (non-prefix) body", i+1)
		}
		failed++
	}
	faults.Reset()
	if failed == 0 {
		t.Error("no stream failed with serve.stream armed at p=0.5 — site is likely not wired")
	}

	// every failed stream was counted
	if n := metricValue(t, ts.URL, "mxqd_serialize_failures_total"); n < int64(failed) {
		t.Errorf("mxqd_serialize_failures_total = %d, want >= %d", n, failed)
	}
	// the server survived: healthz is green and the full mix round-trips
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v, %v", resp, err)
	}
	resp.Body.Close()
	for i := range want {
		resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": xmark.Query(i + 1)})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("post-chaos Q%d: status %d: %s", i+1, resp.StatusCode, body)
			continue
		}
		if string(body) != want[i] {
			t.Errorf("post-chaos Q%d differs from the in-process oracle", i+1)
		}
	}
}

// postTolerant posts a query and reads as much of the body as the
// server managed to stream; complete reports whether the response
// terminated cleanly (no mid-stream cut).
func postTolerant(t *testing.T, url, query string) (body string, complete bool) {
	t.Helper()
	b, err := json.Marshal(map[string]any{"query": query})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return string(data), false
	}
	return string(data), rerr == nil
}

// metricValue scrapes one counter/gauge from /metrics.
func metricValue(t *testing.T, baseURL, name string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("metric %s = %q: %v", name, f, err)
			}
			return n
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestGracefulShutdownInFlight wires an http.Server exactly as mxqd
// does (Serve on a real listener, then Shutdown on SIGTERM) and checks
// the graceful-drain contract: an in-flight streaming response runs to
// completion with the correct bytes, while new connections are refused
// the moment shutdown begins.
func TestGracefulShutdownInFlight(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := mxq.Open()
	db.LoadXMark("auction.xml", 0.002, 11)
	srv := New(db, Config{})

	// large enough that the response cannot hide in socket buffers:
	// the handler is still writing while the client trickles reads
	const bigQuery = `for $i in 1 to 500000 return $i`
	want, err := db.QueryString(bigQuery)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Start the streaming request and read just the first byte — the
	// handler is now mid-stream, blocked on backpressure.
	reqBody, _ := json.Marshal(map[string]any{"query": bigQuery})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	first := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, first); err != nil {
		t.Fatalf("first byte: %v", err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- hs.Shutdown(ctx)
	}()

	// New connections must be refused as soon as the listener closes.
	refused := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			refused = true
			break
		}
		c.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Error("new connections still accepted after Shutdown began")
	}

	// The in-flight response must stream to completion, byte-identical.
	rest, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("in-flight stream cut during graceful shutdown: %v", err)
	}
	if got := string(first) + string(rest); got != want {
		t.Fatalf("in-flight response corrupted: %d bytes, want %d", len(got), len(want))
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown did not drain within its deadline: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestShutdownDeadlineHonored checks the other half of the contract: a
// request that outlives the shutdown context makes Shutdown return
// DeadlineExceeded instead of hanging, and Close then tears the
// connection down so the executor's cancellation ends the execution.
func TestShutdownDeadlineHonored(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := mxq.Open()
	db.LoadXMark("auction.xml", 0.002, 11)
	srv := New(db, Config{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// errors are expected once Close rips the connection away
		reqBody, _ := json.Marshal(map[string]any{"query": slowQuery})
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(reqBody))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// let the slow query reach the executor
	waitInflight(t, base, 5*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = hs.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (a live request cannot drain in 50ms)", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown honored no deadline: returned after %v", elapsed)
	}
	hs.Close() // force-close the straggler; its context cancels the executor
	wg.Wait()
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// waitInflight polls /metrics until a request is inside the executor.
func waitInflight(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		if metricValue(t, base, "mxqd_inflight_queries") > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("query never became in-flight")
}

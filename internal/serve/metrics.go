package serve

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the duration
// histograms, decade-stepped from 1ms to 10s plus +Inf.
var latencyBuckets = [numBuckets - 1]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// numBuckets counts the histogram buckets including +Inf.
const numBuckets = 10

// histo is a lock-free duration histogram over latencyBuckets.
type histo struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Int64
}

func (h *histo) observe(d time.Duration) {
	h.count.Add(1)
	h.sum.Add(int64(d))
	sec := d.Seconds()
	k := numBuckets - 1 // +Inf
	for i, ub := range latencyBuckets {
		if sec <= ub {
			k = i
			break
		}
	}
	h.buckets[k].Add(1)
}

// write renders the histogram in the text exposition format under the
// given metric name.
func (h *histo) write(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", ub), cum)
	}
	cum += h.buckets[numBuckets-1].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, time.Duration(h.sum.Load()).Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// metrics holds the server's counters. Everything is atomic — the hot
// path never takes a lock.
type metrics struct {
	queries           atomic.Int64 // executions started
	errors            atomic.Int64 // executions that returned an error
	timeouts          atomic.Int64 // executions cancelled by deadline/disconnect
	compileErrors     atomic.Int64 // prepare/one-shot compile failures
	rejected          atomic.Int64 // admissions rejected (queue full or expired while queued)
	memRejected       atomic.Int64 // admissions rejected by the scheduler memory pool
	inflight          atomic.Int64 // currently admitted requests
	serializeFailures atomic.Int64 // result streams that failed mid-write
	stmtsEvicted      atomic.Int64 // prepared statements evicted (TTL or LRU overflow)

	latency   histo // execution + serialization, to end-of-stream
	queueWait histo // time spent waiting for admission
}

func (m *metrics) observe(d time.Duration, err error) {
	m.queries.Add(1)
	m.latency.observe(d)
	if err != nil {
		m.errors.Add(1)
		if execStatus(err) == http.StatusGatewayTimeout {
			m.timeouts.Add(1)
		}
	}
}

// handleMetrics renders the counters in the text exposition format
// (counter/gauge/histogram lines a Prometheus scraper accepts).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := &s.metrics
	hits, misses, cached := s.db.Engine().CacheStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# TYPE mxqd_queries_total counter\nmxqd_queries_total %d\n", m.queries.Load())
	fmt.Fprintf(w, "# TYPE mxqd_query_errors_total counter\nmxqd_query_errors_total %d\n", m.errors.Load())
	fmt.Fprintf(w, "# TYPE mxqd_query_timeouts_total counter\nmxqd_query_timeouts_total %d\n", m.timeouts.Load())
	fmt.Fprintf(w, "# TYPE mxqd_compile_errors_total counter\nmxqd_compile_errors_total %d\n", m.compileErrors.Load())
	fmt.Fprintf(w, "# TYPE mxqd_rejected_total counter\nmxqd_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "# TYPE mxqd_inflight_queries gauge\nmxqd_inflight_queries %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# TYPE mxqd_serialize_failures_total counter\nmxqd_serialize_failures_total %d\n", m.serializeFailures.Load())
	fmt.Fprintf(w, "# TYPE mxqd_prepared_statements gauge\nmxqd_prepared_statements %d\n", s.StmtCount())
	fmt.Fprintf(w, "# TYPE mxqd_stmts_evicted_total counter\nmxqd_stmts_evicted_total %d\n", m.stmtsEvicted.Load())
	fmt.Fprintf(w, "# TYPE mxqd_plan_cache_hits_total counter\nmxqd_plan_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# TYPE mxqd_plan_cache_misses_total counter\nmxqd_plan_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "# TYPE mxqd_plan_cache_size gauge\nmxqd_plan_cache_size %d\n", cached)
	st := s.sched.Stats()
	fmt.Fprintf(w, "# TYPE mxqd_queue_depth gauge\nmxqd_queue_depth %d\n", st.QueueDepth)
	fmt.Fprintf(w, "# TYPE mxqd_sched_running gauge\nmxqd_sched_running %d\n", st.Running)
	fmt.Fprintf(w, "# TYPE mxqd_sched_admitted_total counter\nmxqd_sched_admitted_total %d\n", st.Admitted)
	fmt.Fprintf(w, "# TYPE mxqd_sched_queue_rejected_total counter\nmxqd_sched_queue_rejected_total %d\n", st.RejectedFull)
	fmt.Fprintf(w, "# TYPE mxqd_sched_queue_canceled_total counter\nmxqd_sched_queue_canceled_total %d\n", st.CanceledWait)
	fmt.Fprintf(w, "# TYPE mxqd_mem_rejected_total counter\nmxqd_mem_rejected_total %d\n", m.memRejected.Load())
	fmt.Fprintf(w, "# TYPE mxqd_mem_per_query_bytes gauge\nmxqd_mem_per_query_bytes %d\n", st.MemPerQuery)
	fmt.Fprintf(w, "# TYPE mxqd_mem_total_bytes gauge\nmxqd_mem_total_bytes %d\n", st.MemTotal)
	fmt.Fprintf(w, "# TYPE mxqd_mem_inuse_bytes gauge\nmxqd_mem_inuse_bytes %d\n", st.MemInUse)
	fmt.Fprintf(w, "# TYPE mxqd_mem_highwater_bytes gauge\nmxqd_mem_highwater_bytes %d\n", st.MemHighWater)
	m.latency.write(w, "mxqd_query_seconds")
	m.queueWait.write(w, "mxqd_queue_wait_seconds")
}

// LimitListener caps concurrently accepted connections at n: Accept
// blocks while n connections are open, and each connection returns its
// slot on Close. This is the daemon's connection limit, sitting below
// the per-query inflight limit.
func LimitListener(l net.Listener, n int) net.Listener {
	return &limitListener{Listener: l, sem: make(chan struct{}, n), done: make(chan struct{})}
}

type limitListener struct {
	net.Listener
	sem    chan struct{}
	done   chan struct{} // closed by Close
	closed atomic.Bool
}

// Accept waits for a connection slot, then accepts. Close ends the
// wait: http.Server's Close and Shutdown wait for Serve to return
// before they close a connection, so a wait only a connection's close
// could end would hang them at the limit.
//
// waitcheck:exempt the error-path and per-conn releases drain a slot
// this call provably holds.
func (l *limitListener) Accept() (net.Conn, error) {
	select {
	case l.sem <- struct{}{}:
	case <-l.done:
		return nil, net.ErrClosed
	}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitConn{Conn: c, release: func() { <-l.sem }}, nil
}

// Close closes the listener and ends any Accept waiting for a slot.
func (l *limitListener) Close() error {
	if l.closed.CompareAndSwap(false, true) {
		close(l.done)
	}
	return l.Listener.Close()
}

type limitConn struct {
	net.Conn
	release  func()
	released atomic.Bool
}

func (c *limitConn) Close() error {
	if c.released.CompareAndSwap(false, true) {
		defer c.release()
	}
	return c.Conn.Close()
}

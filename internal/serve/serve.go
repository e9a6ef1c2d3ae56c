// Package serve is the HTTP serving layer of the engine — the mxqd
// daemon's core. It exposes the statement-centric API of package mxq
// over the wire:
//
//	POST   /query            one-shot query, streamed XML/text response
//	POST   /prepare          compile a query, returns {id, vars}
//	POST   /stmt/{id}/exec   execute a prepared statement with JSON binds
//	DELETE /stmt/{id}        release a prepared statement
//	GET    /healthz          liveness probe
//	GET    /metrics          text-format counters and latency histogram
//
// Results stream to the response body through Result.SerializeXML —
// the serialized text is never materialized server-side. Every
// execution runs under the request's context plus the effective
// timeout, so client disconnects and deadlines cancel the executor at
// its operator checkpoints; the fork-join worker pool guarantees no
// goroutine outlives its request. Static query errors (parse errors
// and the XPST/XQST classes) map to 400, dynamic errors to 500,
// deadline expiry to 504, and resource exhaustion — a query exceeding
// its memory budget, or the scheduler's memory pool refusing another
// admission — to 503 (overload, not a defect of the query).
//
// Admission is scheduled, not shed at the door: every request —
// including its compile work — first admits itself with the engine's
// global query scheduler (or a server-private one with the sched
// defaults), waiting deadline-aware in a bounded queue for an
// execution slot. Only a full queue answers 503 immediately; a request
// whose deadline expires while queued answers 503 too, having done no
// work. Prepared statements are evicted under an idle TTL plus LRU
// overflow, so abandoned sessions cannot wedge /prepare.
package serve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mxq"
	"mxq/internal/faults"
	"mxq/internal/sched"
)

// Config tunes one Server. The zero value serves with the defaults
// noted per field. Admission limits are not here: they are the
// scheduler's (sched.Config, installed with mxq.WithScheduler).
type Config struct {
	// MaxStmts bounds the live prepared statements; preparing beyond it
	// evicts the least-recently-used statement rather than failing.
	// 0 means DefaultMaxStmts.
	MaxStmts int
	// StmtTTL evicts prepared statements idle longer than this (no
	// exec, no lookup). 0 means DefaultStmtTTL; negative disables
	// idle eviction.
	StmtTTL time.Duration
	// DefaultTimeout applies to executions whose request does not set
	// timeout_ms. 0 means DefaultQueryTimeout; negative disables the
	// default deadline (the request context still cancels).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms. 0 means
	// DefaultMaxTimeout.
	MaxTimeout time.Duration
}

// Defaults for the zero Config.
const (
	DefaultMaxStmts     = 1024
	DefaultStmtTTL      = 15 * time.Minute
	DefaultQueryTimeout = 30 * time.Second
	DefaultMaxTimeout   = 5 * time.Minute
)

// maxRequestBytes bounds request bodies; a larger body answers 400.
const maxRequestBytes = 1 << 20

func (c Config) withDefaults() Config {
	if c.MaxStmts == 0 {
		c.MaxStmts = DefaultMaxStmts
	}
	if c.StmtTTL == 0 {
		c.StmtTTL = DefaultStmtTTL
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = DefaultQueryTimeout
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = DefaultMaxTimeout
	}
	return c
}

// Server serves one DB over HTTP. Create with New, install via
// Handler; it is safe for any number of concurrent requests.
type Server struct {
	db    *mxq.DB
	cfg   Config
	mux   *http.ServeMux
	sched *sched.Scheduler // admission + worker pool; never nil
	now   func() time.Time // statement-eviction clock (tests inject)

	mu     sync.Mutex
	stmts  map[string]*stmtEntry
	lru    *list.List // of *stmtEntry; front = most recently used
	nextID int64

	metrics metrics
}

// stmtEntry is one registered prepared statement plus its eviction
// bookkeeping (guarded by Server.mu).
type stmtEntry struct {
	id       string
	stmt     *mxq.Stmt
	lastUsed time.Time
	elem     *list.Element
}

// New builds a Server over db. When db's engine runs under a global
// scheduler the server admits requests through it; otherwise the
// server builds a private one with the sched.Config defaults, so
// admission is always scheduled.
func New(db *mxq.DB, cfg Config) *Server {
	s := &Server{
		db:    db,
		cfg:   cfg.withDefaults(),
		mux:   http.NewServeMux(),
		now:   time.Now,
		stmts: make(map[string]*stmtEntry),
		lru:   list.New(),
	}
	s.sched = db.Engine().Scheduler()
	if s.sched == nil {
		s.sched = sched.New(sched.Config{})
	}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /stmt/{id}/exec", s.handleExec)
	s.mux.HandleFunc("DELETE /stmt/{id}", s.handleClose)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StmtCount reports the live prepared statements (metrics, tests).
func (s *Server) StmtCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stmts)
}

// queryRequest is the JSON body of /query and /stmt/{id}/exec. For
// /query the query text is required; for exec it is ignored.
type queryRequest struct {
	Query string `json:"query"`
	// Binds supplies external variables: number, string, bool, or an
	// array of those (a sequence). JSON integers bind as xs:integer,
	// other numbers as xs:double.
	Binds map[string]json.RawMessage `json:"binds"`
	// TimeoutMS overrides the server's default query timeout, capped
	// by the server's maximum.
	TimeoutMS int64 `json:"timeout_ms"`
}

// errorBody is the JSON error response of every endpoint.
type errorBody struct {
	Error string `json:"error"`
	// Code is the W3C error code when the failure is a typed XQuery
	// error ("" otherwise).
	Code string `json:"code,omitempty"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error()}
	if qe := mxq.AsQueryError(err); qe != nil {
		body.Code = qe.Code
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// execStatus maps an execution error to its HTTP status: deadline and
// cancellation map to 504, a memory-budget overrun to 503 (the same
// query may succeed under a larger budget or a quieter server — it is
// overload, not a defect), static query errors to 400 (the query can
// never run), everything else — dynamic errors, contained internal
// panics — to 500.
func execStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	if mxq.IsResourceLimit(err) {
		return http.StatusServiceUnavailable
	}
	if qe := mxq.AsQueryError(err); qe != nil && qe.Static() {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*queryRequest, bool) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	return &req, true
}

// execContext derives the execution context: the request context (so a
// client disconnect cancels the executor) plus the effective timeout.
func (s *Server) execContext(r *http.Request, req *queryRequest) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// clamped in milliseconds: multiplied first, a huge timeout_ms
		// wraps negative and would read as "no deadline" below
		timeout = time.Duration(min(req.TimeoutMS, s.cfg.MaxTimeout.Milliseconds()+1)) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if timeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), timeout)
}

// admit waits — deadline-aware, up to the request's remaining timeout
// — for an execution slot. A full admission queue answers 503
// immediately; a deadline that expires while queued answers 503 too
// (the request did no work, so 504 would be misleading). The grant is
// admitted with no cost hints: the budget is finalized by the
// execution once the plan is compiled.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (*sched.Grant, bool) {
	start := time.Now()
	g, err := s.sched.Admit(ctx, sched.Cost{})
	s.metrics.queueWait.observe(time.Since(start))
	if err != nil {
		s.metrics.rejected.Add(1)
		switch {
		case errors.Is(err, sched.ErrQueueFull):
			writeError(w, http.StatusServiceUnavailable, errors.New("too many queries in flight"))
		case errors.Is(err, sched.ErrMemExhausted):
			s.metrics.memRejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, errors.New("server memory pool exhausted; retry when running queries finish"))
		default:
			writeError(w, http.StatusServiceUnavailable, errors.New("no execution slot within the request deadline"))
		}
		return nil, false
	}
	s.metrics.inflight.Add(1)
	return g, true
}

func (s *Server) release(g *sched.Grant) {
	s.metrics.inflight.Add(-1)
	g.Release()
}

// run executes stmt under ctx — which must carry the request's
// admission grant — and streams the result. Latency is measured to
// end-of-stream: serialization is the dominant cost of large results,
// so stopping the clock at executor completion would hide it.
func (s *Server) run(ctx context.Context, w http.ResponseWriter, stmt *mxq.Stmt) {
	start := time.Now()
	res, err := stmt.ExecContext(ctx)
	if err != nil {
		s.metrics.observe(time.Since(start), err)
		writeError(w, execStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	// The result streams from here; a serialization failure usually
	// means the client went away — nothing useful can be written
	// anymore, but the failure is counted.
	serr := res.SerializeXML(faultWriter{w})
	s.metrics.observe(time.Since(start), nil)
	if serr != nil {
		s.metrics.serializeFailures.Add(1)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, errors.New(`missing "query"`))
		return
	}
	ctx, cancel := s.execContext(r, req)
	defer cancel()
	// Admission comes before compilation: a flood of compile-heavy (or
	// parse-error) requests must not bypass the concurrency limit.
	g, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer s.release(g)
	stmt, err := s.db.Prepare(req.Query)
	if err != nil {
		s.metrics.compileErrors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	stmt, ok = s.bindAll(w, stmt, req.Binds)
	if !ok {
		return
	}
	s.run(sched.WithGrant(ctx, g), w, stmt)
}

// prepareResponse is the JSON body answering /prepare.
type prepareResponse struct {
	ID   string    `json:"id"`
	Vars []varInfo `json:"vars"`
}

type varInfo struct {
	Name      string `json:"name"`
	Required  bool   `json:"required"`
	Singleton bool   `json:"singleton"`
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, errors.New(`missing "query"`))
		return
	}
	ctx, cancel := s.execContext(r, req)
	defer cancel()
	// Compilation runs under admission like any execution: preparing is
	// the compile-heavy path, so it must not bypass the limit either.
	g, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	stmt, err := s.db.Prepare(req.Query)
	s.release(g)
	if err != nil {
		s.metrics.compileErrors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := prepareResponse{}
	for _, v := range stmt.Vars() {
		resp.Vars = append(resp.Vars, varInfo{Name: v.Name, Required: v.Required, Singleton: v.Singleton})
	}
	resp.ID = s.register(stmt)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// register adds stmt to the statement registry, evicting idle-expired
// statements first and then — if the registry is still full — the
// least recently used one, so /prepare always succeeds and abandoned
// sessions cannot wedge it into 503.
func (s *Server) register(stmt *mxq.Stmt) string {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	for len(s.stmts) >= s.cfg.MaxStmts {
		s.evictLocked(s.lru.Back().Value.(*stmtEntry))
	}
	s.nextID++
	e := &stmtEntry{id: "s" + strconv.FormatInt(s.nextID, 10), stmt: stmt, lastUsed: now}
	e.elem = s.lru.PushFront(e)
	s.stmts[e.id] = e
	return e.id
}

// sweepLocked evicts statements idle past the TTL, scanning from the
// LRU tail so it stops at the first live one (O(evicted), not
// O(statements)). Callers hold s.mu.
func (s *Server) sweepLocked(now time.Time) {
	if s.cfg.StmtTTL < 0 {
		return
	}
	for el := s.lru.Back(); el != nil; el = s.lru.Back() {
		e := el.Value.(*stmtEntry)
		if now.Sub(e.lastUsed) <= s.cfg.StmtTTL {
			return
		}
		s.evictLocked(e)
	}
}

func (s *Server) evictLocked(e *stmtEntry) {
	delete(s.stmts, e.id)
	s.lru.Remove(e.elem)
	s.metrics.stmtsEvicted.Add(1)
}

// lookup resolves a statement id, refreshing its eviction clock and
// LRU position. Evicting a statement mid-execution is safe — a Stmt is
// immutable and the execution holds its own pointer — so lookup also
// opportunistically sweeps idle statements.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*mxq.Stmt, string, bool) {
	id := r.PathValue("id")
	now := s.now()
	s.mu.Lock()
	s.sweepLocked(now)
	e, ok := s.stmts[id]
	if ok {
		e.lastUsed = now
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no prepared statement %q", id))
		return nil, id, false
	}
	return e.stmt, id, true
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	stmt, _, ok := s.lookup(w, r)
	if !ok {
		return
	}
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	stmt, ok = s.bindAll(w, stmt, req.Binds)
	if !ok {
		return
	}
	ctx, cancel := s.execContext(r, req)
	defer cancel()
	g, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer s.release(g)
	s.run(sched.WithGrant(ctx, g), w, stmt)
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	_, id, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	if e, ok := s.stmts[id]; ok {
		delete(s.stmts, id)
		s.lru.Remove(e.elem)
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// faultWriter is the serve.stream fault point: when the fault registry
// arms serve.stream, response-body writes fail with the injected error
// — the chaos suite's stand-in for a client that vanishes mid-stream.
// A no-op passthrough when faults are disarmed.
type faultWriter struct{ w io.Writer }

func (f faultWriter) Write(p []byte) (int, error) {
	if err := faults.ServeStream.Err(); err != nil {
		return 0, err
	}
	return f.w.Write(p)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// bindAll converts the request's JSON binds to typed values. Stmt.Bind
// is copy-on-write, so the registered statement is never mutated —
// concurrent execs of one statement id with different binds are
// independent.
func (s *Server) bindAll(w http.ResponseWriter, stmt *mxq.Stmt, binds map[string]json.RawMessage) (*mxq.Stmt, bool) {
	for name, raw := range binds {
		v, err := decodeValue(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bind $%s: %w", name, err))
			return nil, false
		}
		stmt = stmt.Bind(name, v)
	}
	return stmt, true
}

// decodeValue maps a JSON value to a typed XQuery sequence: integers
// to xs:integer, other numbers to xs:double, strings and booleans to
// their xs: counterparts, arrays to sequences of the above.
func decodeValue(raw json.RawMessage) (mxq.Value, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return mxq.Value{}, err
	}
	return toValue(v)
}

func toValue(v any) (mxq.Value, error) {
	switch x := v.(type) {
	case json.Number:
		if i, err := strconv.ParseInt(x.String(), 10, 64); err == nil {
			return mxq.Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return mxq.Value{}, fmt.Errorf("bad number %q", x.String())
		}
		return mxq.Float(f), nil
	case string:
		return mxq.String(x), nil
	case bool:
		return mxq.Bool(x), nil
	case []any:
		items := make([]mxq.Value, 0, len(x))
		for _, el := range x {
			ev, err := toValue(el)
			if err != nil {
				return mxq.Value{}, err
			}
			if _, nested := el.([]any); nested {
				return mxq.Value{}, errors.New("sequences do not nest")
			}
			items = append(items, ev)
		}
		return mxq.Sequence(items...), nil
	default:
		return mxq.Value{}, fmt.Errorf("unsupported bind type %T (want number, string, bool, or array)", v)
	}
}

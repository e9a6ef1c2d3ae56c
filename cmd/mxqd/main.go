// Command mxqd serves an mxq engine over HTTP: one-shot queries,
// prepared statements with typed JSON binds, streamed XML results,
// health and metrics endpoints. See docs/serving.md for the wire API.
//
// Typical invocations:
//
//	mxqd -addr :8080 -doc auction=auction.xml
//	mxqd -addr :8080 -xmark 0.1 -timeout 10s
//
// Every query executes under the request context plus the effective
// timeout, so client disconnects and deadlines cancel the executor
// mid-operator without leaking goroutines; a panic from a malformed
// plan is contained to a 500 on that request. SIGINT/SIGTERM drain
// in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mxq"
	"mxq/internal/faults"
	"mxq/internal/serve"
)

// docFlags collects repeatable -doc name=path flags.
type docFlags []string

func (d *docFlags) String() string { return strings.Join(*d, ",") }
func (d *docFlags) Set(s string) error {
	if !strings.Contains(s, "=") {
		return errors.New("want name=path")
	}
	*d = append(*d, s)
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		docs        docFlags
		xmarkFactor = flag.Float64("xmark", 0, "load a generated XMark document at this scale factor (0 = off)")
		xmarkSeed   = flag.Int64("xmark-seed", 42, "XMark generator seed")
		timeout     = flag.Duration("timeout", serve.DefaultQueryTimeout, "default per-query timeout")
		maxTimeout  = flag.Duration("max-timeout", serve.DefaultMaxTimeout, "cap on client-requested timeouts")
		maxInflight = flag.Int("max-inflight", 64, "max concurrently executing queries")
		queueDepth  = flag.Int("queue-depth", 0, "max requests queued for an execution slot (0 = 2x max-inflight, negative = reject instantly)")
		maxStmts    = flag.Int("max-stmts", serve.DefaultMaxStmts, "max live prepared statements before LRU eviction")
		stmtTTL     = flag.Duration("stmt-ttl", serve.DefaultStmtTTL, "evict prepared statements idle this long (negative = never)")
		maxConns    = flag.Int("max-conns", 0, "max open client connections (0 = unlimited)")
		memPerQuery = flag.String("mem-per-query", "0", "per-query memory budget, e.g. 256MiB (0 = unlimited); over-budget queries fail with 503")
		memTotal    = flag.String("mem-total", "0", "global memory pool bounding the sum of per-query reservations, e.g. 4GiB (0 = unlimited); exhausted admissions answer 503")
	)
	flag.Var(&docs, "doc", "load an XML document, name=path (repeatable)")
	flag.Parse()
	memPQ, err := parseBytes(*memPerQuery)
	if err != nil {
		log.Fatalf("mxqd: -mem-per-query: %v", err)
	}
	memTot, err := parseBytes(*memTotal)
	if err != nil {
		log.Fatalf("mxqd: -mem-total: %v", err)
	}
	if memTot > 0 && memPQ == 0 {
		log.Fatalf("mxqd: -mem-total requires -mem-per-query (the pool bounds per-query reservations)")
	}
	// Deterministic fault injection for chaos testing: MXQ_FAULTS holds
	// "site:prob:seed[:mode],..." specs (see internal/faults). Unset in
	// production; the disarmed registry is a single atomic load per site.
	if err := faults.SetFromEnv(); err != nil {
		log.Fatalf("mxqd: MXQ_FAULTS: %v", err)
	}
	if faults.Armed() {
		log.Printf("mxqd: fault injection ARMED via MXQ_FAULTS=%s", os.Getenv("MXQ_FAULTS"))
	}

	// The daemon always runs under a global scheduler: admission and the
	// memory limits come from one place.
	scheduler := mxq.NewScheduler(mxq.SchedulerConfig{
		MaxConcurrent: *maxInflight,
		MaxQueue:      *queueDepth,
		MemPerQuery:   memPQ,
		MemTotal:      memTot,
	})
	db := mxq.Open(mxq.WithScheduler(scheduler))
	for _, d := range docs {
		name, path, _ := strings.Cut(d, "=")
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("mxqd: %v", err)
		}
		err = db.LoadDocument(name, f)
		f.Close()
		if err != nil {
			log.Fatalf("mxqd: load %s: %v", name, err)
		}
		log.Printf("loaded document %q from %s", name, path)
	}
	if *xmarkFactor > 0 {
		db.LoadXMark("xmark", *xmarkFactor, *xmarkSeed)
		log.Printf("loaded generated XMark document (factor %g)", *xmarkFactor)
	}

	srv := serve.New(db, serve.Config{
		MaxStmts:       *maxStmts,
		StmtTTL:        *stmtTTL,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mxqd: %v", err)
	}
	if memPQ > 0 {
		log.Printf("memory governance: %s per query, %s total", *memPerQuery, *memTotal)
	}
	if *maxConns > 0 {
		ln = serve.LimitListener(ln, *maxConns)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		log.Printf("mxqd listening on %s", ln.Addr())
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("mxqd: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "mxqd: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("mxqd: shutdown: %v", err)
	}
}

// parseBytes parses a byte size: a plain integer, or one with a K/M/G/T
// suffix (optionally followed by "iB" or "B"), binary-scaled — "256MiB",
// "256M" and "268435456" are the same size.
func parseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	shift := 0
units:
	for i, unit := range []string{"K", "M", "G", "T"} {
		for _, full := range []string{unit + "iB", unit + "B", unit} {
			if rest, ok := strings.CutSuffix(t, full); ok {
				t, shift = rest, 10*(i+1)
				break units
			}
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q (want e.g. 256MiB, 4G, or a byte count)", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative size %q", s)
	}
	if n > math.MaxInt64>>shift {
		return 0, fmt.Errorf("size %q overflows 64 bits", s)
	}
	return n << shift, nil
}

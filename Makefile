GO ?= go

.PHONY: check check-ci fmt vet build test race race-cover bench bench-smoke repo-bench-smoke poison-smoke size serve-smoke fuzz-short chaos-smoke cover lint mxqlint verify optcheck

# check is the CI gate: formatting, vet, build, and the full test suite
# under the race detector (the server, the scheduler and concurrent
# executions of one engine must stay race-clean).
check: fmt vet build race

# check-ci is check with the race run also producing the coverage profile
# (one suite execution on CI instead of separate race and cover passes).
check-ci: fmt vet build race-cover

# lint is the static-analysis gate: formatting, vet, the project
# analyzers (docs/static-analysis.md), and — where the tool is
# installed — govulncheck. No analyzer needs the network.
lint: fmt vet mxqlint
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# mxqlint runs the project-specific analyzers (docs/static-analysis.md)
# over the whole module.
mxqlint:
	$(GO) run ./cmd/mxqlint .

# verify runs the full suite with the planck plan verifier forced on:
# every plan any test compiles is checked against the static invariants
# before it executes.
verify:
	MXQ_VERIFY_PLANS=1 $(GO) test ./...

# optcheck runs the optimizer translation-validation corpus (every
# rewrite the 20 XMark + 500 generated queries fire, checked for
# semantic equivalence on synthesized micro-inputs) plus the
# rule-coverage floor — see docs/optimizer.md. The corpus test collects
# the witnesses with Engine.RewriteSteps and validates each one itself
# (optcheck.ValidateSteps), so MXQ_CHECK_REWRITES plays no part here.
# MXQ_FUZZ_SEED adds an extra synthesis seed (CI passes the workflow
# run id); re-run with the seed an unsound-rewrite report prints to
# replay it exactly.
optcheck:
	MXQ_FUZZ_SEED=$(MXQ_FUZZ_SEED) $(GO) test -run 'TestCorpusRewritesSound|TestRuleCoverageFloor' -count=1 -v ./internal/optcheck/

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

race-cover:
	$(GO) test -race -coverprofile=coverage.out -coverpkg=./... ./...

# bench runs every benchmark of the module once — the staircase-join
# kernels, the theta hit-rate sweep (internal/ralg), BenchmarkSerialize
# (internal/store) and the paper's tables — so a kernel that stops
# compiling, panics or disagrees with its reference fails CI; for
# numbers see the verify skill.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-smoke runs the serving-path benchmarks once: prepared
# statements (Prepare once, bind+execute per call) and the
# oversubscribed scheduler (4×GOMAXPROCS concurrent executions admitted
# through one scheduler). A fast CI gate that records the sched numbers
# per run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Prepared|SchedOversubscribed' -benchtime 1x .

# repo-bench-smoke runs the repository benchmark (bench/, a module of
# its own that `go test ./...` here does not descend into) at smoke
# scale, ~5 s: every workload once, each output verified against the
# naive oracle's digests — a kernel change that breaks byte-identity on
# the benchmark corpus fails here, before anyone measures it.
repo-bench-smoke:
	cd bench && $(GO) test ./...

# poison-smoke runs the executor's own suites (the Fun grid against the
# oracle, the budget and cancellation tests, the arena contract) and the
# repository benchmark's output verification on the poisoned arena build
# (-tags arenapoison, docs/executor.md): dirty column memory arrives as
# 0xA5…, every reset overwrites what was handed out and no request is
# too small for the arena, so a kernel that relied on a zeroed make, a
# column aliasing scratch, or a read after Release loses byte identity
# here. fuzz-short and chaos-smoke run their poisoned passes themselves.
POISON = -tags arenapoison
poison-smoke:
	$(GO) test $(POISON) -count=1 ./internal/ralg/ ./internal/store/ ./internal/core/
	cd bench && $(GO) test $(POISON) -count=1 ./...

# size prints the non-test Go lines of every internal/* package (plain
# wc -l): the ROADMAP's "net ralg lines must not grow" budget as a
# number in every CI log.
size:
	@for d in internal/*/; do \
		n=$$(ls $$d*.go 2>/dev/null | grep -v _test.go | xargs cat 2>/dev/null | wc -l); \
		printf '%6d  %s\n' $$n $${d%/}; \
	done

# serve-smoke boots the mxqd daemon on a loopback port and drives the
# example wire client through a full session against it (healthz,
# prepare, typed binds, exec, close) — the end-to-end gate on the HTTP
# serving layer. The daemon always runs under the global scheduler, so
# the session exercises admission. The client retries healthz, so no
# sleep race.
serve-smoke:
	$(GO) build -o mxqd.smoke ./cmd/mxqd
	./mxqd.smoke -addr 127.0.0.1:18099 -xmark 0.002 & \
	pid=$$!; \
	$(GO) run ./examples/server -addr 127.0.0.1:18099; \
	status=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -f mxqd.smoke; \
	exit $$status

# fuzz-short runs the seeded differential query generator (relational
# engine vs the naive oracle, ~30s budget). MXQ_FUZZ_SEED
# defaults to a seed distinct from the in-suite run, so this is a fresh
# 500-query stream, not a replay; override it to reproduce a failure.
# The second pass replays the stream on the poisoned arena build.
MXQ_FUZZ_SEED ?= 424242
fuzz-short:
	MXQ_FUZZ_SEED=$(MXQ_FUZZ_SEED) $(GO) test -run 'TestDifferentialFuzz' -count=1 -v .
	MXQ_FUZZ_SEED=$(MXQ_FUZZ_SEED) $(GO) test $(POISON) -run 'TestDifferentialFuzz' -count=1 .

# chaos-smoke runs the deterministic fault-injection suite under the
# race detector: the XMark mix with errors, cancellations, and panics
# injected at every registered site (docs/robustness.md), plus the
# serving-layer stream faults and the graceful-shutdown contract.
# MXQ_FAULTS_SEED varies the injection schedule (CI passes the workflow
# run id); re-run with the printed seed to replay a failure exactly.
# The last pass repeats the engine suite on the poisoned arena build,
# where every execution takes an arena: none may be left behind.
MXQ_FAULTS_SEED ?= 424242
chaos-smoke:
	MXQ_FAULTS_SEED=$(MXQ_FAULTS_SEED) $(GO) test -race -count=1 -v ./internal/chaos/
	MXQ_FAULTS_SEED=$(MXQ_FAULTS_SEED) $(GO) test -race -count=1 -run 'TestServeStreamChaos|TestGracefulShutdown|TestShutdownDeadline' ./internal/serve/
	MXQ_FAULTS_SEED=$(MXQ_FAULTS_SEED) $(GO) test $(POISON) -race -count=1 ./internal/chaos/

cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1

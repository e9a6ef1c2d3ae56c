// Package faults is the deterministic fault-injection registry behind
// the chaos suite: a fixed catalog of named injection points (Sites)
// threaded through the layers whose failure paths must stay clean —
// the store snapshot, every ralg operator boundary, scheduler
// admission/release, and response streaming in the serving layer.
//
// Disabled — the production state — a site check is one atomic load
// (Armed) and nothing else, so the instrumented hot paths pay no
// measurable cost. Tests arm sites with Enable/Set; the mxqd daemon
// honors the MXQ_FAULTS environment variable via SetFromEnv with the
// same spec grammar:
//
//	MXQ_FAULTS=site:prob:seed[:mode][,site:prob:seed[:mode]...]
//
// where site is a registered name (or "*" for every site), prob is the
// firing probability in [0, 1], seed drives the per-site deterministic
// PRNG, and mode is one of "error" (default — the site returns an
// *Injected error), "panic" (the site panics with that error, so panic
// containment at the execution boundary is exercised), or "cancel"
// (the site returns an error wrapping context.Canceled).
//
// Firing is deterministic per (site, seed): the k-th check of a site
// fires iff a splitmix64 stream seeded by the spec says so. On serial
// code paths a given seed therefore replays the exact same failures;
// under concurrency the trial order — but not the total fire count per
// N trials — depends on scheduling.
package faults

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Mode selects what a firing site does.
type Mode uint8

// Firing modes.
const (
	ModeError  Mode = iota // return an *Injected error
	ModePanic              // panic with the *Injected error
	ModeCancel             // return an error wrapping context.Canceled
)

// Injected is the error a firing site produces (directly, wrapped, or
// as a panic value). Classify with errors.As or IsInjected.
type Injected struct {
	Site  string // the site that fired
	Trial uint64 // 1-based check count at which it fired
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faults: injected failure at %s (trial %d)", e.Site, e.Trial)
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var i *Injected
	return errors.As(err, &i)
}

// siteCfg is one site's armed configuration (immutable once published).
type siteCfg struct {
	prob uint64 // firing threshold out of probDenom
	seed uint64
	mode Mode
}

const probDenom = 1 << 30

// Site is one registered injection point. Call Err at the point the
// fault should strike; it returns nil unless the registry is armed and
// the site's deterministic stream fires.
type Site struct {
	name string
	n    atomic.Uint64
	cfg  atomic.Pointer[siteCfg]
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Err checks the site: nil when faults are disarmed or the stream does
// not fire. A firing site returns an *Injected error (ModeError), an
// error wrapping context.Canceled (ModeCancel), or panics with the
// *Injected error (ModePanic). The disarmed fast path is one atomic
// load.
func (s *Site) Err() error {
	if !armed.Load() {
		return nil
	}
	return s.slow()
}

func (s *Site) slow() error {
	c := s.cfg.Load()
	if c == nil || c.prob == 0 {
		return nil
	}
	n := s.n.Add(1)
	if splitmix64(c.seed+n)&(probDenom-1) >= c.prob {
		return nil
	}
	err := &Injected{Site: s.name, Trial: n}
	switch c.mode {
	case ModePanic:
		panic(err)
	case ModeCancel:
		return fmt.Errorf("%w: %w", err, context.Canceled)
	}
	return err
}

// splitmix64 is the SplitMix64 mixing function: a bijective avalanche
// over the trial counter, so consecutive trials decorrelate fully.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// The registry: a fixed catalog, populated at init so Sites is stable.
var (
	armed    atomic.Bool
	regMu    sync.Mutex
	registry = map[string]*Site{}
)

func register(name string) *Site {
	s := &Site{name: name}
	registry[name] = s
	return s
}

// The fault-point catalog (docs/robustness.md documents each wiring).
var (
	StoreSnapshot = register("store.snapshot") // Pool.Snapshot, the per-execution document snapshot
	RalgOp        = register("ralg.op")        // Exec.Run, before every operator application
	SchedAdmit    = register("sched.admit")    // Scheduler.Admit, before granting a slot
	SchedRelease  = register("sched.release")  // Grant.Release, after returning the slot
	ServeStream   = register("serve.stream")   // response-body writes while streaming a result
)

// Sites returns the registered site names, sorted.
func Sites() []string {
	regMu.Lock()
	defer regMu.Unlock()
	return siteNamesLocked()
}

func siteNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Armed reports whether any site is enabled.
func Armed() bool { return armed.Load() }

// Enable arms one site (or every site, name "*") with the given firing
// probability, seed and mode, resetting its trial counter. It is the
// programmatic test hook behind Set.
func Enable(name string, prob float64, seed uint64, mode Mode) error {
	if prob < 0 || prob > 1 {
		return fmt.Errorf("faults: probability %g outside [0, 1]", prob)
	}
	cfg := &siteCfg{prob: uint64(prob * probDenom), seed: seed, mode: mode}
	if prob >= 1 {
		cfg.prob = probDenom // the masked draw is < probDenom, so this always fires
	}
	regMu.Lock()
	defer regMu.Unlock()
	if name == "*" {
		for _, s := range registry {
			s.n.Store(0)
			s.cfg.Store(cfg)
		}
	} else {
		s, ok := registry[name]
		if !ok {
			return fmt.Errorf("faults: unknown site %q (have %s)", name, strings.Join(siteNamesLocked(), ", "))
		}
		s.n.Store(0)
		s.cfg.Store(cfg)
	}
	armed.Store(true)
	return nil
}

// Reset disarms every site and clears its configuration and counter.
func Reset() {
	armed.Store(false)
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range registry {
		s.cfg.Store(nil)
		s.n.Store(0)
	}
}

// Set parses and applies a spec: comma-separated
// site:prob:seed[:mode] entries (see the package comment). An empty
// spec is a no-op. On a parse error nothing is armed.
func Set(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	type entry struct {
		name string
		prob float64
		seed uint64
		mode Mode
	}
	var entries []entry
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 || len(fields) > 4 {
			return fmt.Errorf("faults: bad spec entry %q (want site:prob:seed[:mode])", part)
		}
		prob, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return fmt.Errorf("faults: bad probability in %q: %v", part, err)
		}
		seed, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return fmt.Errorf("faults: bad seed in %q: %v", part, err)
		}
		mode := ModeError
		if len(fields) == 4 {
			switch fields[3] {
			case "error":
				mode = ModeError
			case "panic":
				mode = ModePanic
			case "cancel":
				mode = ModeCancel
			default:
				return fmt.Errorf("faults: bad mode %q in %q (want error, panic or cancel)", fields[3], part)
			}
		}
		if fields[0] != "*" {
			regMu.Lock()
			_, ok := registry[fields[0]]
			regMu.Unlock()
			if !ok {
				return fmt.Errorf("faults: unknown site %q (have %s)", fields[0], strings.Join(Sites(), ", "))
			}
		}
		entries = append(entries, entry{fields[0], prob, seed, mode})
	}
	for _, e := range entries {
		if err := Enable(e.name, e.prob, e.seed, e.mode); err != nil {
			return err
		}
	}
	return nil
}

// SetFromEnv applies the MXQ_FAULTS environment variable (empty = off).
func SetFromEnv() error { return Set(os.Getenv("MXQ_FAULTS")) }

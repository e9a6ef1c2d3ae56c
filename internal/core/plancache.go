package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"mxq/internal/ralg"
	"mxq/internal/xqc"
)

// DefaultPlanCacheSize is the capacity of every engine's compiled-plan
// cache.
const DefaultPlanCacheSize = 256

// planCache is a concurrency-safe LRU cache of compiled queries, keyed
// by query text. The context document and the external variable
// bindings are execution-time inputs of the plan (ContextRoot/ParamTable
// leaves), not part of the key — one cached entry serves every context
// document and every binding set. Compiled queries are immutable after
// optimization, so one cached entry may be executed by any number of
// concurrent queries; each execution keeps its own table per numbered
// node and its own transient container.
type planCache struct {
	hits   atomic.Int64
	misses atomic.Int64

	mu  sync.Mutex
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

// compiled is one cached statement: its numbered plans plus what its
// executions learn for each other. Every Prepared handle and one-shot
// Query of one text share it through the cache.
type compiled struct {
	params []xqc.Param
	// inits and plan are every params[i].Init (empty for none) and the
	// main plan, numbered once: what the verifier checks, the optimizer
	// rewrites and every execution runs, shared read-only once compiled.
	inits []ralg.Schedule
	plan  ralg.Schedule
	// transientRows is how many rows the last successful execution built
	// in its transient container; the next one's first element constructor
	// reserves them, so the later ones never regrow the container. The last
	// value, not the maximum: a binding that once built a huge result
	// must not pin a huge reservation. Failed executions never write it.
	transientRows atomic.Int64
}

// newCompiled numbers every plan of cq: the only numbering of a compile.
func newCompiled(cq *xqc.Compiled) *compiled {
	st := &compiled{params: cq.Params, inits: make([]ralg.Schedule, len(cq.Params)), plan: ralg.NewSchedule(cq.Plan)}
	for i, p := range cq.Params {
		st.inits[i] = ralg.NewSchedule(p.Init) // empty for a nil Init
	}
	return st
}

// root is the main plan's root: the node the executor runs last.
func (st *compiled) root() ralg.Plan { return st.plan[len(st.plan)-1].Plan }

type planEntry struct {
	key  string
	plan *compiled
}

func newPlanCache() *planCache {
	return &planCache{m: make(map[string]*list.Element), lru: list.New()}
}

func (c *planCache) get(key string) (*compiled, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry).plan, true
}

func (c *planCache) put(key string, p *compiled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*planEntry).plan = p
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&planEntry{key: key, plan: p})
	for c.lru.Len() > DefaultPlanCacheSize {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.m, last.Value.(*planEntry).key)
	}
}

// Len returns the number of cached plans (used by tests).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

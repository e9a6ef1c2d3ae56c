// Sharded multi-document stores: a named corpus of documents partitioned
// across K shard containers. Each shard container holds many document
// fragments (one StartDoc..End fragment per document), so one corpus uses
// K containers instead of one container per document — downstream
// staircase joins then evaluate per shard, and loading parallelizes
// because every shard has its own Builder.
//
// Documents are assigned to shards by a hash of the document name
// (ShardOf), so shard membership is stable across loads and independent
// of insertion order.

package store

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// ShardOf returns the shard index of the named document in a k-shard
// collection (FNV-1a over the document name, modulo k).
func ShardOf(doc string, k int) int {
	if k <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(doc))
	return int(h.Sum32() % uint32(k))
}

// ShardedPool is a sharded multi-document collection: K shard containers,
// each holding the pre|size|level fragments of the documents hashed to it.
// Like single-document containers, a ShardedPool is immutable once built
// and registered; WithDoc produces a new ShardedPool sharing the
// unchanged shards, so in-flight pool snapshots keep seeing their
// version (the same snapshot semantics single documents have).
type ShardedPool struct {
	Name   string
	shards []*Container
	docs   [][]string // per-shard document names, insertion order
}

// Shards returns the shard containers in shard order.
func (sp *ShardedPool) Shards() []*Container { return sp.shards }

// K returns the number of shards.
func (sp *ShardedPool) K() int { return len(sp.shards) }

// DocCount returns the number of documents in the collection.
func (sp *ShardedPool) DocCount() int {
	n := 0
	for _, d := range sp.docs {
		n += len(d)
	}
	return n
}

// has reports whether the collection contains the named document.
func (sp *ShardedPool) has(doc string) bool {
	for _, names := range sp.docs {
		for _, n := range names {
			if n == doc {
				return true
			}
		}
	}
	return false
}

// order returns the shard indexes in collection document order: ascending
// registered container id, unregistered shards last in shard order. Node
// items compare by (container id, pre), so this order IS the document
// order queries observe across shards.
func (sp *ShardedPool) order() []int {
	idx := make([]int, len(sp.shards))
	for i := range idx {
		idx[i] = i
	}
	key := func(i int) int64 {
		c := sp.shards[i]
		if c.pool == nil {
			return int64(1)<<40 + int64(i)
		}
		return int64(c.ID)
	}
	for i := 1; i < len(idx); i++ { // insertion sort; K is small
		for j := i; j > 0 && key(idx[j]) < key(idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// DocNames returns the document names in collection document order (the
// order collection() enumerates the documents): shards by ascending
// container id, documents within a shard in insertion order.
func (sp *ShardedPool) DocNames() []string {
	out := make([]string, 0, sp.DocCount())
	for _, s := range sp.order() {
		out = append(out, sp.docs[s]...)
	}
	return out
}

// Roots returns the (container id, fragment-root pre) pairs of every
// document in the collection, in collection document order. All shards
// must be pool-registered.
func (sp *ShardedPool) Roots() (conts, pres []int32) {
	for _, s := range sp.order() {
		c := sp.shards[s]
		for _, r := range c.FragRoots() {
			conts = append(conts, c.ID)
			pres = append(pres, r)
		}
	}
	return conts, pres
}

// BuildIndexes pre-builds the element-name indexes of shards that do not
// have one yet. Engines call it before taking their registry lock, so
// the O(shard) index construction never stalls concurrent queries;
// Pool.RegisterCollection skips shards that already carry an index.
func (sp *ShardedPool) BuildIndexes() {
	for _, c := range sp.shards {
		if c.elemIndex == nil {
			c.BuildIndexes()
		}
	}
}

// BuildSharded builds a sharded collection of the named documents across
// k shard containers. Documents are assigned to shards by ShardOf and the
// shard containers are built concurrently (one goroutine and one Builder
// per non-empty shard). build must append exactly one document fragment
// (StartDoc .. End) for the named document — ShredInto for XML input, or
// any generator emitting Builder events.
func BuildSharded(name string, k int, docNames []string, build func(doc string, b *Builder) error) (*ShardedPool, error) {
	if k < 1 {
		k = 1
	}
	sp := &ShardedPool{Name: name, shards: make([]*Container, k), docs: make([][]string, k)}
	seen := make(map[string]bool, len(docNames))
	for _, d := range docNames {
		if seen[d] {
			return nil, fmt.Errorf("store: duplicate document %q in collection %q", d, name)
		}
		seen[d] = true
		s := ShardOf(d, k)
		sp.docs[s] = append(sp.docs[s], d)
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		sp.shards[s] = &Container{Names: NewNames(), attrStart: []int32{0}} // unnamed, not transient
		if len(sp.docs[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			b := NewContainerBuilder(sp.shards[s])
			for _, d := range sp.docs[s] {
				if err := build(d, b); err != nil {
					errs[s] = err
					return
				}
			}
			if _, err := b.Done(); err != nil {
				errs[s] = err
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// WithDoc returns a new ShardedPool that additionally holds the named
// document: the target shard container is deep-copied and the new
// fragment appended to the copy, while all other shards are shared. The
// receiver — and every pool snapshot referencing it — is unchanged. The
// new shard container is unregistered; registering it assigns it a fresh
// container id, which moves the updated shard to the end of the
// collection's document order.
func (sp *ShardedPool) WithDoc(doc string, build func(b *Builder) error) (*ShardedPool, error) {
	if sp.has(doc) {
		return nil, fmt.Errorf("store: document %q already in collection %q", doc, sp.Name)
	}
	s := ShardOf(doc, len(sp.shards))
	out := &ShardedPool{
		Name:   sp.Name,
		shards: append([]*Container(nil), sp.shards...),
		docs:   append([][]string(nil), sp.docs...),
	}
	out.shards[s] = sp.shards[s].Clone()
	out.docs[s] = append(append([]string(nil), sp.docs[s]...), doc)
	b := NewContainerBuilder(out.shards[s])
	if err := build(b); err != nil {
		return nil, err
	}
	if _, err := b.Done(); err != nil {
		return nil, err
	}
	// the copy's numbers start as the source's: its values are a prefix
	out.shards[s].nums = sp.shards[s].nums.over(out.shards[s])
	return out, nil
}

// Clone returns a deep copy of the container's rows, properties and name
// dictionary, detached from any pool (ID 0, no indexes). It is the basis
// of ShardedPool.WithDoc's copy-on-write shard update. Containers with
// shallow-copy ref indirection cannot be cloned: their self-referencing
// RefCont entries are tied to the source's container id.
func (c *Container) Clone() *Container {
	if c.RefCont != nil {
		panic("store: cannot clone a container with ref indirection")
	}
	return &Container{
		Name:      c.Name,
		Size:      append([]int32(nil), c.Size...),
		Level:     append([]int32(nil), c.Level...),
		Kind:      append([]NodeKind(nil), c.Kind...),
		Parent:    append([]int32(nil), c.Parent...),
		Frag:      append([]int32(nil), c.Frag...),
		NameID:    append([]int32(nil), c.NameID...),
		Value:     append([]int32(nil), c.Value...),
		Texts:     append([]string(nil), c.Texts...),
		AttrOwner: append([]int32(nil), c.AttrOwner...),
		AttrName:  append([]int32(nil), c.AttrName...),
		AttrVal:   append([]string(nil), c.AttrVal...),
		attrStart: append([]int32(nil), c.attrStart...),
		Names:     c.Names.Clone(),
	}
}

// Clone returns a deep copy of the dictionary.
func (d *Names) Clone() *Names {
	out := &Names{
		byName: make(map[string]int32, len(d.byName)),
		names:  append([]string(nil), d.names...),
	}
	for k, v := range d.byName {
		out.byName[k] = v
	}
	return out
}

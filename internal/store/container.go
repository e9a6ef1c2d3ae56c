// Package store implements the relational XML storage scheme of
// MonetDB/XQuery: documents are shredded into a pre|size|level table whose
// preorder rank simultaneously serves as node identity, plus property
// containers for qualified names, text content and attributes (paper §2 and
// §5.1).
//
// A Container holds one document (a "document container") or all transient
// nodes constructed during the evaluation of one query (a "transient
// container"). Transient containers hold many disjoint tree fragments; the
// frag column keeps them apart. Subtree copies into a transient container
// are shallow: the structural rows are copied, while the node properties
// (names, text, attributes) remain in the original container and are
// reached through the per-row (RefCont, RefPre) indirection — the paper's
// cont/ref columns.
package store

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"mxq/internal/faults"
)

// NodeKind is the node-kind property of a pre|size|level row.
type NodeKind uint8

// Node kinds stored in the kind column.
const (
	KindDoc     NodeKind = iota // document root node
	KindElem                    // element node
	KindText                    // text node
	KindComment                 // comment node
	KindPI                      // processing instruction
)

func (k NodeKind) String() string {
	switch k {
	case KindDoc:
		return "document"
	case KindElem:
		return "element"
	case KindText:
		return "text"
	case KindComment:
		return "comment"
	case KindPI:
		return "processing-instruction"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Container is the relational encoding of a set of XML tree fragments: the
// pre|size|level backbone plus property containers. All slices are indexed
// by preorder rank, and every row is a node: the encoding has no unused
// tuples (Validate checks it).
type Container struct {
	ID   int32  // container id within its Pool
	Name string // document name ("" for transient containers)

	// Structural backbone.
	Size   []int32    // number of nodes in the subtree below each node
	Level  []int32    // depth below the fragment root, >= 0
	Kind   []NodeKind // node kind
	Parent []int32    // parent pre; -1 for fragment roots
	Frag   []int32    // pre of the fragment root each node belongs to

	// Property containers. NameID indexes Names for elements and PI
	// targets; Value indexes Texts for text, comment and PI nodes. Both
	// are -1 when not applicable.
	NameID []int32
	Value  []int32
	Texts  []string

	// Attribute container, grouped by owner pre in document order.
	// attrStart[p] .. attrStart[p+1] delimit the attributes of node p.
	AttrOwner []int32
	AttrName  []int32
	AttrVal   []string
	attrStart []int32

	// Shallow-copy indirection (paper's cont/ref columns). Nil for
	// document containers: every row references itself. When non-nil,
	// property lookups for row p are answered by container RefCont[p] at
	// pre RefPre[p].
	RefCont []int32
	RefPre  []int32

	// Names is the qualified-name dictionary of this container.
	Names *Names

	pool *Pool

	// elemIndex maps element name id -> ascending pres ("nametest
	// index"), built by BuildIndexes for document containers.
	elemIndex map[int32][]int32
}

// Len returns the number of rows in the pre|size|level table.
func (c *Container) Len() int { return len(c.Size) }

// refOf resolves the property indirection of row pre: the container and pre
// where the node's properties live.
func (c *Container) refOf(pre int32) (*Container, int32) {
	if c.RefCont == nil || c.RefCont[pre] == c.ID {
		return c, ifNil(c.RefPre, pre)
	}
	return c.pool.Get(c.RefCont[pre]), c.RefPre[pre]
}

func ifNil(ref []int32, pre int32) int32 {
	if ref == nil {
		return pre
	}
	return ref[pre]
}

// NameOf returns the qualified name of the element or PI target at pre.
func (c *Container) NameOf(pre int32) string {
	rc, rp := c.refOf(pre)
	id := rc.NameID[rp]
	if id < 0 {
		return ""
	}
	return rc.Names.Name(id)
}

// TextOf returns the content of a text, comment or PI node at pre.
func (c *Container) TextOf(pre int32) string {
	rc, rp := c.refOf(pre)
	v := rc.Value[rp]
	if v < 0 {
		return ""
	}
	return rc.Texts[v]
}

// Attrs returns the attribute rows (in the referenced container) of node
// pre along with the container holding them.
func (c *Container) Attrs(pre int32) (ac *Container, lo, hi int32) {
	rc, rp := c.refOf(pre)
	return rc, rc.attrStart[rp], rc.attrStart[rp+1]
}

// StringValue computes the XPath string value of the node at pre: the text
// content for text/comment/PI nodes, and the concatenation of all
// descendant text nodes for elements and document nodes.
func (c *Container) StringValue(pre int32) string {
	switch c.Kind[pre] {
	case KindText, KindComment, KindPI:
		return c.TextOf(pre)
	}
	end := pre + c.Size[pre]
	var buf []byte
	for p := pre + 1; p <= end; p++ {
		if c.Kind[p] == KindText {
			buf = append(buf, c.TextOf(p)...)
		}
	}
	return string(buf)
}

// StringValues is the bulk form of StringValue: it computes the string
// value of every node in pres (given in the executor's int64 column
// width) into out. The executor's vectorized atomize kernel calls it once
// per uniform node column instead of boxing one item per row.
func (c *Container) StringValues(pres []int64, out []string) {
	for i, p := range pres {
		out[i] = c.StringValue(int32(p))
	}
}

// AttrValues is the bulk form of attribute atomization: it copies the
// attribute values of the given attribute-table rows into out.
func (c *Container) AttrValues(rows []int64, out []string) {
	for i, r := range rows {
		out[i] = c.AttrVal[r]
	}
}

// NamesOf is the bulk form of NameOf: the qualified names of the nodes in
// pres, written into out (the executor's vectorized fn:name kernel).
func (c *Container) NamesOf(pres []int64, out []string) {
	for i, p := range pres {
		out[i] = c.NameOf(int32(p))
	}
}

// AttrNames resolves the qualified names of the given attribute-table
// rows into out.
func (c *Container) AttrNames(rows []int64, out []string) {
	for i, r := range rows {
		out[i] = c.Names.Name(c.AttrName[r])
	}
}

// Post returns the postorder rank of node pre, recovered from the
// pre/size/level encoding as post = pre + size - level (paper §2).
func (c *Container) Post(pre int32) int32 {
	return pre + c.Size[pre] - c.Level[pre]
}

// BuildIndexes constructs the element-name posting lists used by the
// candidate-list ("nametest pushdown") variants of staircase join. The
// lists hold pres in ascending (document) order.
func (c *Container) BuildIndexes() {
	idx := make(map[int32][]int32)
	for p := 0; p < c.Len(); p++ {
		if c.Kind[p] == KindElem {
			rc, rp := c.refOf(int32(p))
			id := rc.NameID[rp]
			if rc != c {
				// remap foreign name id into this container's dictionary
				id = c.Names.ID(rc.Names.Name(id))
			}
			idx[id] = append(idx[id], int32(p))
		}
	}
	c.elemIndex = idx
}

// ElemIndex returns the ascending pre list of elements named name, and
// whether an index is available on this container.
func (c *Container) ElemIndex(name string) ([]int32, bool) {
	if c.elemIndex == nil {
		return nil, false
	}
	id, ok := c.Names.Lookup(name)
	if !ok {
		return nil, true // index exists; name does not occur
	}
	return c.elemIndex[id], true
}

// FragRoots returns the pres of all fragment roots in the container.
func (c *Container) FragRoots() []int32 {
	var roots []int32
	for p := int32(0); p < int32(c.Len()); p += c.Size[p] + 1 {
		roots = append(roots, p)
	}
	return roots
}

// Validate checks the invariants of the pre|size|level encoding and the
// property containers: every row is a node (level >= 0, a kind from
// KindDoc to KindPI), and the children of every node tile its region
// exactly — each starts where its previous sibling's region ends, and the
// last ends where the parent's does. Tests call it on shredded, generated,
// copied and sharded containers.
func (c *Container) Validate() error {
	n := int32(c.Len())
	if len(c.Level) != int(n) || len(c.Kind) != int(n) || len(c.Parent) != int(n) ||
		len(c.Frag) != int(n) || len(c.NameID) != int(n) || len(c.Value) != int(n) {
		return fmt.Errorf("store: ragged container columns")
	}
	if len(c.attrStart) != int(n)+1 {
		return fmt.Errorf("store: attrStart has %d entries, want %d", len(c.attrStart), n+1)
	}
	// backwards, so every row a region walk steps over is already checked
	for p := n - 1; p >= 0; p-- {
		if c.Size[p] < 0 || c.Level[p] < 0 || c.Kind[p] > KindPI {
			return fmt.Errorf("store: row %d (size %d, level %d, %v) is not a node", p, c.Size[p], c.Level[p], c.Kind[p])
		}
		end := p + c.Size[p]
		if end >= n {
			return fmt.Errorf("store: node %d subtree end %d out of range", p, end)
		}
		q := p + 1
		for ; q <= end; q += c.Size[q] + 1 {
			if c.Parent[q] != p {
				return fmt.Errorf("store: node %d inside region of %d has parent %d", q, p, c.Parent[q])
			}
			if c.Level[q] != c.Level[p]+1 {
				return fmt.Errorf("store: child %d of %d has level %d, want %d", q, p, c.Level[q], c.Level[p]+1)
			}
		}
		if q != end+1 {
			return fmt.Errorf("store: children of %d overrun its region end %d", p, end)
		}
	}
	if !sort.SliceIsSorted(c.AttrOwner, func(i, j int) bool { return c.AttrOwner[i] < c.AttrOwner[j] }) {
		return fmt.Errorf("store: attribute table not grouped by owner")
	}
	return nil
}

// Names is a qualified-name dictionary: a bidirectional mapping between
// names and dense integer ids.
type Names struct {
	byName map[string]int32
	names  []string
}

// NewNames returns an empty dictionary.
func NewNames() *Names {
	return &Names{byName: make(map[string]int32)}
}

// ID interns name and returns its id.
func (d *Names) ID(name string) int32 {
	if id, ok := d.byName[name]; ok {
		return id
	}
	id := int32(len(d.names))
	d.names = append(d.names, name)
	d.byName[name] = id
	return id
}

// Lookup returns the id of name without interning it.
func (d *Names) Lookup(name string) (int32, bool) {
	id, ok := d.byName[name]
	return id, ok
}

// Name returns the name with the given id.
func (d *Names) Name(id int32) string { return d.names[id] }

// Len returns the number of interned names.
func (d *Names) Len() int { return len(d.names) }

// Pool is the registry of containers live in one engine instance: the
// paper's "loaded documents" table. Container ids index the pool.
//
// A Pool is not synchronized; concurrent engines serialize Register and
// Snapshot calls themselves (core.Engine holds an RWMutex) and treat
// registered containers as immutable. Snapshot gives each query its own
// registry so a per-query transient container can be added without
// affecting other queries running against the same documents.
type Pool struct {
	containers  []*Container
	byName      map[string]*Container
	collections map[string]*ShardedPool
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		byName:      make(map[string]*Container),
		collections: make(map[string]*ShardedPool),
	}
}

// Register adds c to the pool, assigning its id.
func (p *Pool) Register(c *Container) *Container {
	c.ID = int32(len(p.containers))
	c.pool = p
	p.containers = append(p.containers, c)
	if c.Name != "" {
		p.byName[c.Name] = c
	}
	return c
}

// Get returns the container with the given id.
func (p *Pool) Get(id int32) *Container { return p.containers[id] }

// Holds reports whether id names a container of this pool: false for an
// id out of range and for the emptied slot of a superseded shard version.
func (p *Pool) Holds(id int32) bool {
	return uint(id) < uint(len(p.containers)) && p.containers[id] != nil
}

// Rows sums the structural row counts of every registered container: the
// snapshot input size the scheduler's worker-budget heuristic scales with.
func (p *Pool) Rows() int64 {
	var n int64
	for _, c := range p.containers {
		if c != nil { // the slot of a superseded shard version
			n += int64(c.Len())
		}
	}
	return n
}

// Snapshot returns a shallow copy of the pool: it shares the registered
// containers (immutable once registered) but owns its registry, so
// containers registered later — per-query transients, concurrently
// loaded documents — never show up in, or renumber, existing snapshots.
func (p *Pool) Snapshot() *Pool {
	// fault point: a snapshot-time failure (e.g. allocation) must be
	// contained by the execution boundary, never corrupt the source pool
	if err := faults.StoreSnapshot.Err(); err != nil {
		panic(err)
	}
	return &Pool{containers: slices.Clone(p.containers), byName: maps.Clone(p.byName), collections: maps.Clone(p.collections)}
}

// RegisterCollection registers the collection's shard containers that
// this pool does not hold yet (ascending container ids in shard order)
// and records the collection under its name. Re-registering after WithDoc
// leaves the shards already here — shared with pool snapshots — untouched
// and empties the slots of the versions the new collection no longer
// holds: snapshots own their registry, so a superseded version lives
// exactly as long as a snapshot that can name it. A ShardedPool belongs
// to one pool: registering a shard another pool owns would rewrite its
// container id under that engine's feet, so it panics.
func (p *Pool) RegisterCollection(sp *ShardedPool) {
	if old := p.collections[sp.Name]; old != nil {
		for _, c := range old.shards {
			if c.pool == p && !slices.Contains(sp.shards, c) {
				p.containers[c.ID] = nil
			}
		}
	}
	for _, c := range sp.shards {
		if c.pool == nil {
			p.Register(c)
			if c.elemIndex == nil {
				c.BuildIndexes()
			}
		} else if c.pool != p {
			panic("store: shard container already registered with another pool; a ShardedPool belongs to one engine")
		}
	}
	p.collections[sp.Name] = sp
}

// Collection returns the sharded collection registered under name.
func (p *Pool) Collection(name string) (*ShardedPool, bool) {
	sp, ok := p.collections[name]
	return sp, ok
}

// ByName returns the document container registered under name.
func (p *Pool) ByName(name string) (*Container, bool) {
	c, ok := p.byName[name]
	return c, ok
}

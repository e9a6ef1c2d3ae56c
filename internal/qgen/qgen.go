// Package qgen is a seeded, deterministic XPath/FLWOR query generator
// over the XMark vocabulary, used for randomized differential testing:
// every generated query is run through the relational engine and the
// naive DOM oracle, and the serializations must be byte-identical. The generator stays inside the dialect both engines
// implement and favors the constructs whose plans differ most between
// them (location steps with predicates, FLWOR pipelines, aggregates,
// general comparisons, doc()/collection() roots, and — via BoundQuery —
// prepared queries with external variables and typed bindings).
package qgen

import (
	"fmt"
	"math/rand"
	"strings"

	"mxq/internal/xqt"
)

// Gen is one deterministic query stream. Two Gens with the same seed and
// roots produce the same queries.
type Gen struct {
	rng *rand.Rand
	// roots are full root expressions a path may start from — "/site",
	// `doc("b.xml")/site`, `collection("xm")/site` — chosen uniformly.
	roots []string
	// ctors counts CtorQuery calls, which alternate between its two modes
	ctors int
}

// New returns a generator drawing path roots from roots.
func New(seed int64, roots []string) *Gen {
	if len(roots) == 0 {
		roots = []string{"/site"}
	}
	return &Gen{rng: rand.New(rand.NewSource(seed)), roots: append([]string(nil), roots...)}
}

// names is the XMark element vocabulary the step generator draws from.
var names = []string{
	"people", "person", "name", "emailaddress", "profile", "interest",
	"regions", "europe", "namerica", "item", "location", "quantity",
	"description", "text", "parlist", "listitem", "keyword", "bold",
	"open_auctions", "open_auction", "bidder", "increase", "initial",
	"current", "reserve", "closed_auctions", "closed_auction", "price",
	"buyer", "seller", "annotation", "categories", "category", "mailbox",
	"mail", "date", "itemref", "personref", "payment",
}

// hotPaths are known-productive XMark paths (relative to a /site root) so
// a good share of queries traverse real data instead of empty results.
var hotPaths = []string{
	"/people/person",
	"/people/person/name",
	"/people/person/profile",
	"//item",
	"//item/name",
	"/regions/europe/item",
	"/open_auctions/open_auction",
	"/open_auctions/open_auction/bidder",
	"//bidder/increase",
	"/closed_auctions/closed_auction",
	"//closed_auction/price",
	"/categories/category",
	"//keyword",
	"//mail/date",
}

var attrs = []string{"id", "category", "person", "open_auction", "item"}

func (g *Gen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

func (g *Gen) name() string { return g.pick(names) }

// step emits one random location step (leading slash included).
func (g *Gen) step() string {
	switch g.rng.Intn(8) {
	case 0:
		return "//" + g.name()
	case 1:
		return fmt.Sprintf("/%s[%d]", g.name(), 1+g.rng.Intn(3))
	case 2:
		return "/" + g.name() + "[@" + g.pick(attrs) + "]"
	case 3:
		return "/*"
	case 4:
		return fmt.Sprintf("/%s[last()]", g.name())
	default:
		return "/" + g.name()
	}
}

// Path emits a random absolute path over one of the roots.
func (g *Gen) Path() string {
	var sb strings.Builder
	sb.WriteString(g.pick(g.roots))
	if g.rng.Intn(2) == 0 {
		sb.WriteString(g.pick(hotPaths))
	}
	for n := g.rng.Intn(3); n > 0; n-- {
		sb.WriteString(g.step())
	}
	switch g.rng.Intn(6) {
	case 0:
		sb.WriteString("/text()")
	case 1:
		sb.WriteString("/@" + g.pick(attrs))
	}
	return sb.String()
}

// numPath emits a path whose atomized values are numeric-ish (for
// aggregates and ordering comparisons).
func (g *Gen) numPath() string {
	root := g.pick(g.roots)
	return root + g.pick([]string{
		"//bidder/increase",
		"//closed_auction/price",
		"//item/quantity",
		"//open_auction/current",
		"//open_auction/initial",
	})
}

// cond emits a where-clause predicate over the bound variable $v.
func (g *Gen) cond(v string) string {
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf(`$%s/@%s = "%s%d"`, v, g.pick(attrs), g.pick([]string{"person", "item", "open_auction", "category"}), g.rng.Intn(12))
	case 1:
		return fmt.Sprintf("count($%s/%s) > %d", v, g.name(), g.rng.Intn(3))
	case 2:
		return fmt.Sprintf("exists($%s//%s)", v, g.name())
	case 3:
		return fmt.Sprintf("number($%s) > %d", v, g.rng.Intn(100))
	case 4:
		return fmt.Sprintf(`contains(string($%s/name), "%s")`, v, g.pick([]string{"a", "e", "x", "qu"}))
	case 5:
		return fmt.Sprintf("not(empty($%s/@%s))", v, g.pick(attrs))
	default:
		return fmt.Sprintf("$%s/%s or $%s/@%s", v, g.name(), v, g.pick(attrs))
	}
}

// ret emits a FLWOR return expression over $v.
func (g *Gen) ret(v string) string {
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("$%s/name/text()", v)
	case 1:
		return fmt.Sprintf("count($%s/*)", v)
	case 2:
		return fmt.Sprintf("<r>{$%s/@%s}</r>", v, g.pick(attrs))
	case 3:
		return fmt.Sprintf(`<r n="{count($%s//%s)}"/>`, v, g.name())
	case 4:
		return fmt.Sprintf("string-length(string($%s/name))", v)
	default:
		return "$" + v
	}
}

// BoundQuery is a generated query whose prolog declares external
// variables, plus the typed bindings to execute it with. A declared
// variable with a default may be deliberately absent from Binds (the
// engines must then agree on the default's value).
type BoundQuery struct {
	Query string
	Binds map[string][]xqt.Item
}

// boundVar is one generated external declaration: the prolog text of
// the declaration, the binding (nil = deliberately unbound), and a
// condition builder over the variable. use(ctx, pfx) instantiates the
// condition for a context: in a predicate ctx is "." and pfx is "",
// in a where clause over $x they are "$x" and "$x/".
type boundVar struct {
	decl string
	bind []xqt.Item
	use  func(ctx, pfx string) string
}

// extVar generates one external declaration for the variable named v,
// covering the type × default × bound/unbound axes of the prepared-
// query surface.
func (g *Gen) extVar(v string) boundVar {
	switch g.rng.Intn(6) {
	case 0: // int threshold
		return boundVar{
			decl: fmt.Sprintf("declare variable $%s external;", v),
			bind: []xqt.Item{xqt.Int(int64(g.rng.Intn(60)))},
			use: func(ctx, pfx string) string {
				return fmt.Sprintf("number(%s) > $%s", ctx, v)
			},
		}
	case 1: // float threshold with a default, bound half the time
		b := []xqt.Item{xqt.Double(float64(g.rng.Intn(400)) / 4)}
		if g.rng.Intn(2) == 0 {
			b = nil
		}
		return boundVar{
			decl: fmt.Sprintf("declare variable $%s external := %d.5;", v, g.rng.Intn(40)),
			bind: b,
			use: func(ctx, pfx string) string {
				return fmt.Sprintf("number(%s) <= $%s", ctx, v)
			},
		}
	case 2: // attribute string match
		attr := g.pick(attrs)
		return boundVar{
			decl: fmt.Sprintf("declare variable $%s external;", v),
			bind: []xqt.Item{xqt.Str(fmt.Sprintf("%s%d", g.pick([]string{"person", "item", "open_auction", "category"}), g.rng.Intn(12)))},
			use: func(ctx, pfx string) string {
				return fmt.Sprintf("%s@%s = $%s", pfx, attr, v)
			},
		}
	case 3: // string sequence binding: existential general comparison
		n := 2 + g.rng.Intn(3)
		seq := make([]xqt.Item, n)
		for i := range seq {
			seq[i] = xqt.Str(fmt.Sprintf("person%d", g.rng.Intn(20)))
		}
		return boundVar{
			decl: fmt.Sprintf("declare variable $%s external;", v),
			bind: seq,
			use: func(ctx, pfx string) string {
				return fmt.Sprintf("%s@id = $%s", pfx, v)
			},
		}
	case 4: // boolean switch
		return boundVar{
			decl: fmt.Sprintf("declare variable $%s external := true();", v),
			bind: []xqt.Item{xqt.Bool(g.rng.Intn(2) == 0)},
			use: func(ctx, pfx string) string {
				return "$" + v
			},
		}
	default: // int sequence: membership over child counts
		n := 1 + g.rng.Intn(3)
		seq := make([]xqt.Item, n)
		for i := range seq {
			seq[i] = xqt.Int(int64(g.rng.Intn(5)))
		}
		return boundVar{
			decl: fmt.Sprintf("declare variable $%s external;", v),
			bind: seq,
			use: func(ctx, pfx string) string {
				return fmt.Sprintf("count(%s*) = $%s", pfx, v)
			},
		}
	}
}

// BoundQuery emits one random parameterized query with 1–2 external
// variables and typed bindings, exercising the prepared-statement path
// of every engine.
func (g *Gen) BoundQuery() BoundQuery {
	v1 := g.extVar("v1")
	decls := v1.decl
	binds := map[string][]xqt.Item{}
	if v1.bind != nil {
		binds["v1"] = v1.bind
	}
	var body string
	switch g.rng.Intn(5) {
	case 0:
		body = fmt.Sprintf("%s[%s]", g.Path(), v1.use(".", ""))
	case 1:
		body = fmt.Sprintf("count(%s[%s])", g.Path(), v1.use(".", ""))
	case 2: // second variable in the return expression
		v2 := g.extVar("v2")
		decls += " " + v2.decl
		if v2.bind != nil {
			binds["v2"] = v2.bind
		}
		body = fmt.Sprintf(`for $x in %s where %s return <r v="{$v2}">{%s}</r>`,
			g.Path(), v1.use("$x", "$x/"), g.ret("x"))
	case 3: // external variable referenced inside a UDF body (prolog
		// variables must be in scope in function bodies on every engine)
		decls += fmt.Sprintf(" declare function local:flt($s) { $s[%s] };", v1.use(".", ""))
		body = fmt.Sprintf("count(local:flt(%s))", g.Path())
	default: // FLWOR with the variable in the where clause
		body = fmt.Sprintf("for $x in %s where %s return %s",
			g.Path(), v1.use("$x", "$x/"), g.ret("x"))
	}
	return BoundQuery{Query: decls + " " + body, Binds: binds}
}

// Query emits one random query.
func (g *Gen) Query() string {
	switch g.rng.Intn(12) {
	case 0:
		return fmt.Sprintf("count(%s)", g.Path())
	case 1:
		return g.Path()
	case 2: // plain FLWOR with optional where
		p := g.Path()
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("for $x in %s where %s return %s", p, g.cond("x"), g.ret("x"))
		}
		return fmt.Sprintf("for $x in %s return %s", p, g.ret("x"))
	case 3: // ordered FLWOR
		return fmt.Sprintf("for $x in %s order by string($x/name) return %s", g.Path(), g.ret("x"))
	case 4: // aggregates over numeric data
		agg := g.pick([]string{"sum", "max", "min", "avg", "count"})
		return fmt.Sprintf("%s(for $x in %s return number($x))", agg, g.numPath())
	case 5: // nested counts
		return fmt.Sprintf("sum(for $x in %s return count($x/%s))", g.Path(), g.name())
	case 6: // join-shaped double FLWOR
		return fmt.Sprintf(`for $x in %s, $y in %s where $x/@id = $y/@%s return <p>{$x/@id}</p>`,
			g.Path(), g.Path(), g.pick([]string{"person", "open_auction", "item"}))
	case 7: // conditional
		return fmt.Sprintf("if (%s) then count(%s) else %d",
			fmt.Sprintf("exists(%s)", g.Path()), g.Path(), g.rng.Intn(10))
	case 8: // distinct-values over attributes
		return fmt.Sprintf("distinct-values(for $x in %s return string($x/@%s))", g.Path(), g.pick(attrs))
	case 9: // quantifier
		q := g.pick([]string{"some", "every"})
		return fmt.Sprintf("%s $x in %s satisfies %s", q, g.Path(), g.cond("x"))
	case 10: // union + general comparison
		return fmt.Sprintf("count(%s | %s)", g.Path(), g.Path())
	default: // positional / last() heavy path
		p := g.Path()
		return fmt.Sprintf("%s[%s]", p, g.pick([]string{"1", "2", "last()", "last() - 1", "position() = 2"}))
	}
}

// CtorQuery emits one random query around element constructors. Calls
// alternate between trees that are only serialized — nested, for- and
// let-bound constructors used as content, which build by reference —
// and trees that are navigated, atomized or compared, which copy their
// content, so any two consecutive calls run both modes. Only the
// differential fuzzer draws it: Query's stream is not touched.
func (g *Gen) CtorQuery() string {
	p, name, attr := g.Path(), g.name(), g.pick(attrs)
	g.ctors++
	if g.ctors%2 == 1 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf(`for $x in %s return <r>{$x/@%s}<s>{$x/name/text()}</s>x{%d}{$x/%s}</r>`, p, attr, g.rng.Intn(9), name)
		case 1:
			return fmt.Sprintf(`let $c := <c>{%s}</c> return <r>{$c}{$c}</r>`, p)
		case 2:
			return fmt.Sprintf(`for $c in (for $x in %s return <c>{$x/%s}</c>) return <r>{$c}</r>`, p, name)
		default:
			return fmt.Sprintf(`<r>{for $x in %s return <c n="{count($x/*)}">{$x}{1}{(2, 3)}</c>}</r>`, p)
		}
	}
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf(`let $c := <c>{%s}</c> return <r n="{count($c/*)}">{$c}{$c/*[1]}</r>`, p)
	case 1:
		return fmt.Sprintf(`(<c>{%s}</c>)/*[%d]`, p, 1+g.rng.Intn(3))
	case 2:
		return fmt.Sprintf(`string(<c>{%s}</c>)`, p)
	case 3:
		return fmt.Sprintf(`for $x in %s return <c>{$x}</c> is <c>{$x}</c>`, p)
	default:
		return fmt.Sprintf(`count(<c>{<d>{%s}</d>}</c>//%s)`, p, name)
	}
}

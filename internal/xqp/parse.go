package xqp

import (
	"fmt"
	"mxq/internal/xqerr"
	"strconv"
	"strings"
)

// Parse parses an XQuery main module: an optional prolog of function
// and variable declarations followed by the query body.
func Parse(src string) (*Module, error) {
	p := &parser{l: newLexer(src)}
	m := &Module{}
	for {
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if tok.kind != tName || tok.text != "declare" {
			break
		}
		if err := p.parseDecl(m); err != nil {
			return nil, err
		}
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	tok, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	if tok.kind != tEOF {
		return nil, p.l.errf(tok.pos, "unexpected %s after end of query", tok)
	}
	m.Body = body
	return m, nil
}

type parser struct {
	l *lexer
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	tok, err := p.l.next()
	if err != nil {
		return token{}, err
	}
	if tok.kind != k {
		return token{}, p.l.errf(tok.pos, "expected %s, found %s", what, tok)
	}
	return tok, nil
}

func (p *parser) expectKw(kw string) error {
	tok, err := p.l.next()
	if err != nil {
		return err
	}
	if tok.kind != tName || tok.text != kw {
		return p.l.errf(tok.pos, "expected %q, found %s", kw, tok)
	}
	return nil
}

// peekKw reports whether the next token is the given keyword.
func (p *parser) peekKw(kw string) bool {
	tok, err := p.l.peek()
	return err == nil && tok.kind == tName && tok.text == kw
}

// aheadChar returns the first non-space character after the current
// lookahead token (used to disambiguate keywords from element name
// tests, e.g. "for $x" vs. the path step "for").
func (p *parser) aheadChar() byte {
	tok, err := p.l.peek()
	if err != nil {
		return 0
	}
	i := tok.pos + len(tok.text)
	if tok.kind == tString {
		i = tok.pos // strings include quotes; not used for keywords
	}
	for i < len(p.l.src) {
		switch p.l.src[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return p.l.src[i]
		}
	}
	return 0
}

// parseDecl parses one prolog declaration ("declare …;") into m.
func (p *parser) parseDecl(m *Module) error {
	if err := p.expectKw("declare"); err != nil {
		return err
	}
	tok, err := p.l.next()
	if err != nil {
		return err
	}
	if tok.kind != tName {
		return p.l.errf(tok.pos, "expected prolog declaration, found %s", tok)
	}
	switch tok.text {
	case "namespace":
		// "declare namespace prefix = uri;" — accepted and ignored
		if _, err := p.expect(tName, "namespace prefix"); err != nil {
			return err
		}
		if _, err := p.expect(tEq, "="); err != nil {
			return err
		}
		if _, err := p.expect(tString, "namespace URI"); err != nil {
			return err
		}
		if _, err := p.expect(tSemi, ";"); err != nil {
			return err
		}
		return nil
	case "variable":
		vd, err := p.parseVarDecl()
		if err != nil {
			return err
		}
		for _, prev := range m.Vars {
			if prev.Name == vd.Name {
				return xqerr.Newf("XQST0049", "variable $%s declared more than once", vd.Name)
			}
		}
		m.Vars = append(m.Vars, vd)
		return nil
	case "function":
		name, err := p.expect(tName, "function name")
		if err != nil {
			return err
		}
		if _, err := p.expect(tLParen, "("); err != nil {
			return err
		}
		var params []string
		for {
			tok, err := p.l.peek()
			if err != nil {
				return err
			}
			if tok.kind == tRParen {
				break
			}
			v, err := p.expect(tVar, "parameter variable")
			if err != nil {
				return err
			}
			params = append(params, v.text)
			tok, err = p.l.peek()
			if err != nil {
				return err
			}
			if tok.kind == tComma {
				p.l.next()
				continue
			}
			break
		}
		if _, err := p.expect(tRParen, ")"); err != nil {
			return err
		}
		if _, err := p.expect(tLBrace, "{"); err != nil {
			return err
		}
		body, err := p.parseExpr()
		if err != nil {
			return err
		}
		if _, err := p.expect(tRBrace, "}"); err != nil {
			return err
		}
		if _, err := p.expect(tSemi, ";"); err != nil {
			return err
		}
		m.Funcs = append(m.Funcs, &FuncDecl{Name: name.text, Params: params, Body: body})
		return nil
	}
	return p.l.errf(tok.pos, "unsupported prolog declaration %q", tok.text)
}

// parseVarDecl parses "variable $name [external] [:= Expr];" with the
// leading "declare variable" already consumed.
func (p *parser) parseVarDecl() (*VarDecl, error) {
	v, err := p.expect(tVar, "variable name")
	if err != nil {
		return nil, err
	}
	vd := &VarDecl{Name: v.text}
	if p.peekKw("external") {
		p.l.next()
		vd.External = true
	}
	tok, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	if tok.kind == tAssign {
		p.l.next()
		init, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		vd.Init = init
	} else if !vd.External {
		return nil, p.l.errf(tok.pos, "expected := or \"external\" in variable declaration $%s", vd.Name)
	}
	if _, err := p.expect(tSemi, ";"); err != nil {
		return nil, err
	}
	return vd, nil
}

// parseExpr parses a comma-separated sequence expression.
func (p *parser) parseExpr() (Expr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	items := []Expr{first}
	for {
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if tok.kind != tComma {
			break
		}
		p.l.next()
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return &Seq{Items: items}, nil
}

func (p *parser) parseExprSingle() (Expr, error) {
	tok, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	if tok.kind == tName {
		switch tok.text {
		case "for", "let":
			if p.aheadChar() == '$' {
				return p.parseFLWOR()
			}
		case "some", "every":
			if p.aheadChar() == '$' {
				return p.parseQuantified()
			}
		case "if":
			if p.aheadChar() == '(' {
				return p.parseIf()
			}
		}
	}
	return p.parseOr()
}

func (p *parser) parseFLWOR() (Expr, error) {
	fl := &FLWOR{}
	for {
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if tok.kind != tName {
			return nil, p.l.errf(tok.pos, "expected FLWOR clause, found %s", tok)
		}
		switch tok.text {
		case "for":
			p.l.next()
			for {
				v, err := p.expect(tVar, "for variable")
				if err != nil {
					return nil, err
				}
				pos := ""
				if p.peekKw("at") {
					p.l.next()
					pv, err := p.expect(tVar, "positional variable")
					if err != nil {
						return nil, err
					}
					pos = pv.text
				}
				if err := p.expectKw("in"); err != nil {
					return nil, err
				}
				seq, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, Clause{Kind: ClauseFor, Var: v.text, Pos: pos, Expr: seq})
				tok, err := p.l.peek()
				if err != nil {
					return nil, err
				}
				if tok.kind == tComma {
					p.l.next()
					continue
				}
				break
			}
		case "let":
			p.l.next()
			for {
				v, err := p.expect(tVar, "let variable")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tAssign, ":="); err != nil {
					return nil, err
				}
				val, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, Clause{Kind: ClauseLet, Var: v.text, Expr: val})
				tok, err := p.l.peek()
				if err != nil {
					return nil, err
				}
				if tok.kind == tComma {
					p.l.next()
					continue
				}
				break
			}
		case "where":
			p.l.next()
			cond, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			fl.Clauses = append(fl.Clauses, Clause{Kind: ClauseWhere, Expr: cond})
		case "stable":
			p.l.next()
			// falls through to "order by"
		case "order":
			p.l.next()
			if err := p.expectKw("by"); err != nil {
				return nil, err
			}
			var keys []OrderKey
			for {
				k, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				key := OrderKey{Expr: k}
				if p.peekKw("ascending") {
					p.l.next()
				} else if p.peekKw("descending") {
					p.l.next()
					key.Desc = true
				}
				if p.peekKw("empty") {
					p.l.next()
					if p.peekKw("least") || p.peekKw("greatest") {
						p.l.next() // empty sequences always sort least here
					}
				}
				keys = append(keys, key)
				tok, err := p.l.peek()
				if err != nil {
					return nil, err
				}
				if tok.kind == tComma {
					p.l.next()
					continue
				}
				break
			}
			fl.Clauses = append(fl.Clauses, Clause{Kind: ClauseOrder, Keys: keys})
		case "return":
			p.l.next()
			ret, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			fl.Return = ret
			return fl, nil
		default:
			return nil, p.l.errf(tok.pos, "expected FLWOR clause, found %q", tok.text)
		}
	}
}

func (p *parser) parseQuantified() (Expr, error) {
	tok, _ := p.l.next() // some | every
	q := &Quantified{Every: tok.text == "every"}
	for {
		v, err := p.expect(tVar, "quantifier variable")
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("in"); err != nil {
			return nil, err
		}
		seq, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		q.Vars = append(q.Vars, v.text)
		q.Seqs = append(q.Seqs, seq)
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if tok.kind == tComma {
			p.l.next()
			continue
		}
		break
	}
	if err := p.expectKw("satisfies"); err != nil {
		return nil, err
	}
	sat, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfies = sat
	return q, nil
}

func (p *parser) parseIf() (Expr, error) {
	p.l.next() // if
	if _, err := p.expect(tLParen, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen, ")"); err != nil {
		return nil, err
	}
	if err := p.expectKw("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &If{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekKw("or") {
		p.l.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.peekKw("and") {
		p.l.next()
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

var valueCmps = map[string]BinOp{
	"eq": OpValEq, "ne": OpValNe, "lt": OpValLt,
	"le": OpValLe, "gt": OpValGt, "ge": OpValGe, "is": OpIs,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	tok, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	var op BinOp
	found := true
	switch tok.kind {
	case tEq:
		op = OpGenEq
	case tNe:
		op = OpGenNe
	case tLt:
		op = OpGenLt
	case tLe:
		op = OpGenLe
	case tGt:
		op = OpGenGt
	case tGe:
		op = OpGenGe
	case tLtLt:
		op = OpBefore
	case tGtGt:
		op = OpAfter
	case tName:
		if o, ok := valueCmps[tok.text]; ok {
			op = o
		} else {
			found = false
		}
	default:
		found = false
	}
	if !found {
		return l, nil
	}
	p.l.next()
	r, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: op, L: l, R: r}, nil
}

func (p *parser) parseRange() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.peekKw("to") {
		p.l.next()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: OpRange, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		var op BinOp
		switch tok.kind {
		case tPlus:
			op = OpAdd
		case tMinus:
			op = OpSub
		default:
			return l, nil
		}
		p.l.next()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		var op BinOp
		switch {
		case tok.kind == tStar:
			op = OpMul
		case tok.kind == tName && tok.text == "div":
			op = OpDiv
		case tok.kind == tName && tok.text == "idiv":
			op = OpIDiv
		case tok.kind == tName && tok.text == "mod":
			op = OpMod
		default:
			return l, nil
		}
		p.l.next()
		r, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnion() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if tok.kind != tPipe && !(tok.kind == tName && tok.text == "union") {
			return l, nil
		}
		p.l.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpUnion, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	neg := false
	for {
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if tok.kind == tMinus {
			p.l.next()
			neg = !neg
			continue
		}
		if tok.kind == tPlus {
			p.l.next()
			continue
		}
		break
	}
	e, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if neg {
		return &Unary{X: e}, nil
	}
	return e, nil
}

var kindTests = map[string]TestKind{
	"node": TestAnyNode, "text": TestText, "comment": TestComment,
	"processing-instruction": TestPI, "document-node": TestDocNode,
}

func (p *parser) parsePath() (Expr, error) {
	tok, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	path := &Path{}
	switch tok.kind {
	case tSlash:
		p.l.next()
		path.Absolute = true
		next, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if !p.startsStep(next) {
			return path, nil // lone "/"
		}
		first, err := p.parseStepExpr(true)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, first)
	case tSlashSlash:
		p.l.next()
		path.Absolute = true
		path.Steps = append(path.Steps, Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestAnyNode}})
		first, err := p.parseStepExpr(false)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, first)
	default:
		first, err := p.parseStepExpr(true)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, first)
	}
	for {
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		switch tok.kind {
		case tSlash:
			p.l.next()
		case tSlashSlash:
			p.l.next()
			path.Steps = append(path.Steps, Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestAnyNode}})
		default:
			// unwrap trivial paths
			if !path.Absolute && len(path.Steps) == 1 {
				s := path.Steps[0]
				if s.Expr != nil && len(s.Preds) == 0 {
					return s.Expr, nil
				}
			}
			return path, nil
		}
		step, err := p.parseStepExpr(false)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
	}
}

// startsStep reports whether tok can begin a path step.
func (p *parser) startsStep(tok token) bool {
	switch tok.kind {
	case tName, tStar, tAt, tDot, tDotDot, tVar, tLParen, tInt, tDouble, tString, tLt:
		return true
	}
	return false
}

// parseStepExpr parses one path step. first selects whether primary
// expressions are allowed (XQuery restricts them to the first step; we
// allow them anywhere for simplicity, like several implementations).
func (p *parser) parseStepExpr(first bool) (Step, error) {
	tok, err := p.l.peek()
	if err != nil {
		return Step{}, err
	}
	switch tok.kind {
	case tAt:
		p.l.next()
		test, err := p.parseNameOrStar()
		if err != nil {
			return Step{}, err
		}
		s := Step{Axis: AxisAttribute, Test: test}
		s.Preds, err = p.parsePredicates()
		return s, err
	case tDotDot:
		p.l.next()
		s := Step{Axis: AxisParent, Test: NodeTest{Kind: TestAnyNode}}
		var err error
		s.Preds, err = p.parsePredicates()
		return s, err
	case tStar:
		p.l.next()
		s := Step{Axis: AxisChild, Test: NodeTest{Kind: TestName}}
		var err error
		s.Preds, err = p.parsePredicates()
		return s, err
	case tName:
		name := tok.text
		namePos := tok.pos
		p.l.next()
		nxt, err := p.l.peek()
		if err != nil {
			return Step{}, err
		}
		switch nxt.kind {
		case tAxis:
			axis, ok := axisNames[name]
			if !ok {
				return Step{}, p.l.errf(namePos, "unknown axis %q", name)
			}
			p.l.next()
			test, err := p.parseNodeTest()
			if err != nil {
				return Step{}, err
			}
			s := Step{Axis: axis, Test: test}
			s.Preds, err = p.parsePredicates()
			return s, err
		case tLParen:
			if kind, ok := kindTests[name]; ok {
				p.l.next()
				if _, err := p.expect(tRParen, ")"); err != nil {
					return Step{}, err
				}
				s := Step{Axis: AxisChild, Test: NodeTest{Kind: kind}}
				s.Preds, err = p.parsePredicates()
				return s, err
			}
			call, err := p.parseCall(name)
			if err != nil {
				return Step{}, err
			}
			s := Step{Expr: call}
			s.Preds, err = p.parsePredicates()
			return s, err
		default:
			s := Step{Axis: AxisChild, Test: NodeTest{Kind: TestName, Name: name}}
			var err error
			s.Preds, err = p.parsePredicates()
			return s, err
		}
	}
	// primary expression step
	prim, err := p.parsePrimary()
	if err != nil {
		return Step{}, err
	}
	s := Step{Expr: prim}
	s.Preds, err = p.parsePredicates()
	return s, err
}

func (p *parser) parseNodeTest() (NodeTest, error) {
	tok, err := p.l.next()
	if err != nil {
		return NodeTest{}, err
	}
	switch tok.kind {
	case tStar:
		return NodeTest{Kind: TestName}, nil
	case tName:
		nxt, err := p.l.peek()
		if err != nil {
			return NodeTest{}, err
		}
		if nxt.kind == tLParen {
			if kind, ok := kindTests[tok.text]; ok {
				p.l.next()
				if _, err := p.expect(tRParen, ")"); err != nil {
					return NodeTest{}, err
				}
				return NodeTest{Kind: kind}, nil
			}
		}
		return NodeTest{Kind: TestName, Name: tok.text}, nil
	}
	return NodeTest{}, p.l.errf(tok.pos, "expected node test, found %s", tok)
}

func (p *parser) parseNameOrStar() (NodeTest, error) {
	tok, err := p.l.next()
	if err != nil {
		return NodeTest{}, err
	}
	switch tok.kind {
	case tStar:
		return NodeTest{Kind: TestName}, nil
	case tName:
		return NodeTest{Kind: TestName, Name: tok.text}, nil
	}
	return NodeTest{}, p.l.errf(tok.pos, "expected attribute name or *, found %s", tok)
}

func (p *parser) parsePredicates() ([]Expr, error) {
	var preds []Expr
	for {
		tok, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if tok.kind != tLBracket {
			return preds, nil
		}
		p.l.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRBracket, "]"); err != nil {
			return nil, err
		}
		preds = append(preds, e)
	}
}

func (p *parser) parseCall(name string) (Expr, error) {
	if _, err := p.expect(tLParen, "("); err != nil {
		return nil, err
	}
	var args []Expr
	tok, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	if tok.kind != tRParen {
		for {
			a, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			tok, err := p.l.peek()
			if err != nil {
				return nil, err
			}
			if tok.kind == tComma {
				p.l.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tRParen, ")"); err != nil {
		return nil, err
	}
	// strip the fn: prefix of standard library calls
	name = strings.TrimPrefix(name, "fn:")
	return &Call{Name: name, Args: args}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	tok, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	switch tok.kind {
	case tInt:
		p.l.next()
		return &Literal{Kind: LitInt, I: tok.i}, nil
	case tDouble:
		p.l.next()
		return &Literal{Kind: LitDouble, F: tok.f}, nil
	case tString:
		p.l.next()
		return &Literal{Kind: LitString, S: tok.text}, nil
	case tVar:
		p.l.next()
		return &VarRef{Name: tok.text}, nil
	case tDot:
		p.l.next()
		return &ContextItem{}, nil
	case tLParen:
		p.l.next()
		nxt, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if nxt.kind == tRParen {
			p.l.next()
			return &EmptySeq{}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case tLt:
		return p.parseDirectCtor(tok.pos)
	case tName:
		// must be a function call here (name tests are handled by
		// parseStepExpr)
		p.l.next()
		return p.parseCall(tok.text)
	}
	return nil, p.l.errf(tok.pos, "unexpected %s", tok)
}

// --- direct element constructors ---------------------------------------

// parseDirectCtor parses a direct element constructor at the character
// level starting at the "<" at src[start], then resumes token scanning.
func (p *parser) parseDirectCtor(start int) (Expr, error) {
	e, end, err := p.rawElem(start)
	if err != nil {
		return nil, err
	}
	p.l.setPos(end)
	return e, nil
}

// rawElem parses "<name attrs> content </name>" returning the expression
// and the offset just past the closing tag.
func (p *parser) rawElem(i int) (*ElemCtor, int, error) {
	src := p.l.src
	if i >= len(src) || src[i] != '<' {
		return nil, 0, p.l.errf(i, "expected element constructor")
	}
	i++
	nameStart := i
	for i < len(src) && (isNameChar(src[i]) || src[i] == ':') {
		i++
	}
	if i == nameStart {
		return nil, 0, p.l.errf(i, "expected element name in constructor")
	}
	el := &ElemCtor{Name: src[nameStart:i]}
	// attributes
	for {
		i = skipWS(src, i)
		if i >= len(src) {
			return nil, 0, p.l.errf(i, "unterminated element constructor")
		}
		if src[i] == '/' || src[i] == '>' {
			break
		}
		aStart := i
		for i < len(src) && (isNameChar(src[i]) || src[i] == ':') {
			i++
		}
		if i == aStart {
			return nil, 0, p.l.errf(i, "expected attribute name")
		}
		attr := AttrCtor{Name: src[aStart:i]}
		i = skipWS(src, i)
		if i >= len(src) || src[i] != '=' {
			return nil, 0, p.l.errf(i, "expected = after attribute name")
		}
		i = skipWS(src, i+1)
		if i >= len(src) || (src[i] != '"' && src[i] != '\'') {
			return nil, 0, p.l.errf(i, "expected quoted attribute value")
		}
		quote := src[i]
		i++
		var lit strings.Builder
		flush := func() {
			if lit.Len() > 0 {
				attr.Parts = append(attr.Parts, &Literal{Kind: LitString, S: lit.String()})
				lit.Reset()
			}
		}
		for {
			if i >= len(src) {
				return nil, 0, p.l.errf(i, "unterminated attribute value")
			}
			c := src[i]
			switch {
			case c == quote:
				if i+1 < len(src) && src[i+1] == quote {
					lit.WriteByte(quote)
					i += 2
					continue
				}
				i++
				flush()
				for _, prev := range el.Attrs {
					if prev.Name == attr.Name {
						return nil, 0, xqerr.Newf("XQST0040", "duplicate attribute %s in <%s>", attr.Name, el.Name)
					}
				}
				el.Attrs = append(el.Attrs, attr)
				goto nextAttr
			case c == '{':
				if i+1 < len(src) && src[i+1] == '{' {
					lit.WriteByte('{')
					i += 2
					continue
				}
				flush()
				expr, ni, err := p.rawEnclosed(i)
				if err != nil {
					return nil, 0, err
				}
				attr.Parts = append(attr.Parts, expr)
				i = ni
			case c == '}':
				if i+1 < len(src) && src[i+1] == '}' {
					lit.WriteByte('}')
					i += 2
					continue
				}
				return nil, 0, p.l.errf(i, "unescaped } in attribute value")
			case c == '&':
				ent, n, err := scanEntity(src[i:])
				if err != nil {
					return nil, 0, p.l.errf(i, "%v", err)
				}
				lit.WriteString(ent)
				i += n
			default:
				lit.WriteByte(c)
				i++
			}
		}
	nextAttr:
	}
	if src[i] == '/' {
		if i+1 >= len(src) || src[i+1] != '>' {
			return nil, 0, p.l.errf(i, "expected /> in constructor")
		}
		return el, i + 2, nil
	}
	i++ // '>'
	// content
	var text strings.Builder
	flushText := func() {
		s := text.String()
		text.Reset()
		if strings.TrimSpace(s) == "" {
			return // boundary whitespace is stripped
		}
		el.Content = append(el.Content, &Literal{Kind: LitString, S: s})
	}
	for {
		if i >= len(src) {
			return nil, 0, p.l.errf(i, "unterminated content of <%s>", el.Name)
		}
		c := src[i]
		switch {
		case c == '<' && i+1 < len(src) && src[i+1] == '/':
			flushText()
			i += 2
			cStart := i
			for i < len(src) && (isNameChar(src[i]) || src[i] == ':') {
				i++
			}
			if src[cStart:i] != el.Name {
				return nil, 0, p.l.errf(cStart, "mismatched closing tag </%s> for <%s>", src[cStart:i], el.Name)
			}
			i = skipWS(src, i)
			if i >= len(src) || src[i] != '>' {
				return nil, 0, p.l.errf(i, "expected > in closing tag")
			}
			return el, i + 1, nil
		case c == '<' && i+3 < len(src) && src[i+1] == '!' && src[i+2] == '-' && src[i+3] == '-':
			flushText()
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				return nil, 0, p.l.errf(i, "unterminated comment in constructor")
			}
			i += 4 + end + 3
		case c == '<':
			flushText()
			child, ni, err := p.rawElem(i)
			if err != nil {
				return nil, 0, err
			}
			el.Content = append(el.Content, child)
			i = ni
		case c == '{':
			if i+1 < len(src) && src[i+1] == '{' {
				text.WriteByte('{')
				i += 2
				continue
			}
			flushText()
			expr, ni, err := p.rawEnclosed(i)
			if err != nil {
				return nil, 0, err
			}
			el.Content = append(el.Content, expr)
			i = ni
		case c == '}':
			if i+1 < len(src) && src[i+1] == '}' {
				text.WriteByte('}')
				i += 2
				continue
			}
			return nil, 0, p.l.errf(i, "unescaped } in element content")
		case c == '&':
			if strings.HasPrefix(src[i:], "&#") {
				r, n, err := scanCharRef(src[i:])
				if err != nil {
					return nil, 0, p.l.errf(i, "%v", err)
				}
				text.WriteString(r)
				i += n
				continue
			}
			ent, n, err := scanEntity(src[i:])
			if err != nil {
				return nil, 0, p.l.errf(i, "%v", err)
			}
			text.WriteString(ent)
			i += n
		default:
			text.WriteByte(c)
			i++
		}
	}
}

// rawEnclosed parses "{ expr }" starting at the "{" at offset i using the
// token-level parser, returning the expression and the offset past "}".
func (p *parser) rawEnclosed(i int) (Expr, int, error) {
	p.l.setPos(i + 1)
	e, err := p.parseExpr()
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.expect(tRBrace, "}"); err != nil {
		return nil, 0, err
	}
	return e, p.l.pos, nil
}

func skipWS(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

func scanCharRef(s string) (string, int, error) {
	// s starts with "&#"
	end := strings.IndexByte(s, ';')
	if end < 0 {
		return "", 0, fmt.Errorf("unterminated character reference")
	}
	body := s[2:end]
	base := 10
	if strings.HasPrefix(body, "x") || strings.HasPrefix(body, "X") {
		base = 16
		body = body[1:]
	}
	v, err := strconv.ParseInt(body, base, 32)
	if err != nil {
		return "", 0, fmt.Errorf("bad character reference")
	}
	return string(rune(v)), end + 1, nil
}

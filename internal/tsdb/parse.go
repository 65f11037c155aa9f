package tsdb

import (
	"fmt"
	"strconv"
	"strings"
)

// The PromQL-lite grammar (precedence low to high):
//
//	expr     := additive (cmpOp additive)?          comparisons filter
//	additive := mult (('+'|'-') mult)*
//	mult     := unary (('*'|'/') unary)*
//	unary    := '-' unary | postfix
//	postfix  := primary ('[' duration ']')?
//	primary  := NUMBER
//	          | aggOp ('by' '(' labels ')')? '(' expr ')'
//	          | fn '(' args ')'
//	          | IDENT ('{' matchers '}')?            selector
//	          | '(' expr ')'
//
// Durations are a number with an optional unit: s, m, h (default), d —
// always converted to simulated hours.

// Expr is a parsed query expression.
type Expr interface {
	String() string
}

// NumberLit is a scalar literal. The parser boxes its value once, so
// evaluating a parsed literal allocates nothing.
type NumberLit struct {
	V   float64
	val Value // Scalar(V), set by the parser; nil in a literal built by hand
}

func numberLit(v float64) NumberLit { return NumberLit{V: v, val: Scalar(v)} }

func (n NumberLit) String() string { return strconv.FormatFloat(n.V, 'g', -1, 64) }

// SelectorExpr selects series by name and label matchers. Range > 0
// makes it a range selector over the trailing window of that many hours.
type SelectorExpr struct {
	Name     string
	Matchers []Matcher
	Range    float64 // hours; 0 = instant
}

func (s SelectorExpr) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if len(s.Matchers) > 0 {
		b.WriteByte('{')
		for i, m := range s.Matchers {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(m.String())
		}
		b.WriteByte('}')
	}
	if s.Range > 0 {
		fmt.Fprintf(&b, "[%gh]", s.Range)
	}
	return b.String()
}

// CallExpr is a function application.
type CallExpr struct {
	Fn   string
	Args []Expr
}

func (c CallExpr) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// BinExpr is a binary operation; comparison operators filter.
type BinExpr struct {
	Op       string // + - * / == != > >= < <=
	LHS, RHS Expr
}

func (b BinExpr) String() string {
	return "(" + b.LHS.String() + " " + b.Op + " " + b.RHS.String() + ")"
}

// AggExpr is sum/avg/max/min/count with an optional by-clause.
type AggExpr struct {
	Op string
	By []string // empty = aggregate everything into one sample
	E  Expr
}

func (a AggExpr) String() string {
	by := ""
	if len(a.By) > 0 {
		by = " by (" + strings.Join(a.By, ", ") + ")"
	}
	return a.Op + by + " (" + a.E.String() + ")"
}

var aggOps = map[string]bool{"sum": true, "avg": true, "max": true, "min": true, "count": true}

var funcs = map[string]bool{
	"rate": true, "increase": true,
	"avg_over_time": true, "max_over_time": true, "min_over_time": true,
	"sum_over_time": true, "count_over_time": true,
	"histogram_quantile": true,
}

// ParseExpr parses a PromQL-lite expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("tsdb: unexpected %s after expression", p.peek())
	}
	return e, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("tsdb: expected %s, got %s", what, t)
	}
	return t, nil
}

func (p *parser) parseExpr() (Expr, error) {
	lhs, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.peek().kind {
	case tokGt:
		op = ">"
	case tokGe:
		op = ">="
	case tokLt:
		op = "<"
	case tokLe:
		op = "<="
	case tokEqEq:
		op = "=="
	case tokNe:
		op = "!="
	default:
		return lhs, nil
	}
	p.next()
	rhs, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return BinExpr{Op: op, LHS: lhs, RHS: rhs}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	lhs, err := p.parseMult()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().kind {
		case tokPlus:
			op = "+"
		case tokMinus:
			op = "-"
		default:
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseMult()
		if err != nil {
			return nil, err
		}
		lhs = BinExpr{Op: op, LHS: lhs, RHS: rhs}
	}
}

func (p *parser) parseMult() (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().kind {
		case tokStar:
			op = "*"
		case tokSlash:
			op = "/"
		default:
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		lhs = BinExpr{Op: op, LHS: lhs, RHS: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().kind == tokMinus {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if n, ok := e.(NumberLit); ok {
			return numberLit(-n.V), nil
		}
		return BinExpr{Op: "*", LHS: numberLit(-1), RHS: e}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokLBracket {
		sel, ok := e.(SelectorExpr)
		if !ok {
			return nil, fmt.Errorf("tsdb: range [..] only applies to a selector, not %s", e)
		}
		p.next()
		d, err := p.parseDuration()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
		sel.Range = d
		return sel, nil
	}
	return e, nil
}

// parseDuration reads NUMBER [unit] and converts to hours. Units:
// s(econds), m(inutes), h(ours, default), d(ays).
func (p *parser) parseDuration() (float64, error) {
	t, err := p.expect(tokNumber, "a duration")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("tsdb: bad duration %q", t.text)
	}
	if p.peek().kind == tokIdent {
		switch unit := p.next().text; unit {
		case "s":
			v /= 3600
		case "m":
			v /= 60
		case "h":
		case "d":
			v *= 24
		default:
			return 0, fmt.Errorf("tsdb: unknown duration unit %q (want s, m, h or d)", unit)
		}
	}
	return v, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch t := p.next(); t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("tsdb: bad number %q", t.text)
		}
		return numberLit(v), nil
	case tokLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		name := t.text
		if aggOps[name] {
			return p.parseAgg(name)
		}
		if funcs[name] && p.peek().kind == tokLParen {
			return p.parseCall(name)
		}
		return p.parseSelector(name)
	default:
		return nil, fmt.Errorf("tsdb: unexpected %s", t)
	}
}

func (p *parser) parseAgg(op string) (Expr, error) {
	var by []string
	if p.peek().kind == tokIdent && p.peek().text == "by" {
		p.next()
		if _, err := p.expect(tokLParen, "'(' after by"); err != nil {
			return nil, err
		}
		for p.peek().kind != tokRParen {
			lt, err := p.expect(tokIdent, "a label name")
			if err != nil {
				return nil, err
			}
			by = append(by, lt.text)
			if p.peek().kind == tokComma {
				p.next()
			}
		}
		p.next() // ')'
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return AggExpr{Op: op, By: by, E: e}, nil
}

func (p *parser) parseCall(fn string) (Expr, error) {
	p.next() // '('
	var args []Expr
	for p.peek().kind != tokRParen {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.peek().kind == tokComma {
			p.next()
		}
	}
	p.next() // ')'
	return CallExpr{Fn: fn, Args: args}, nil
}

func (p *parser) parseSelector(name string) (Expr, error) {
	sel := SelectorExpr{Name: name}
	if p.peek().kind != tokLBrace {
		return sel, nil
	}
	p.next()
	for p.peek().kind != tokRBrace {
		key, err := p.expect(tokIdent, "a label name")
		if err != nil {
			return nil, err
		}
		var op MatchOp
		switch t := p.next(); t.kind {
		case tokEq, tokEqEq:
			op = MatchEq
		case tokNe:
			op = MatchNotEq
		case tokReMatch:
			op = MatchRe
		case tokReNot:
			op = MatchNotRe
		default:
			return nil, fmt.Errorf("tsdb: expected a matcher operator, got %s", t)
		}
		val, err := p.expect(tokString, "a quoted label value")
		if err != nil {
			return nil, err
		}
		m, err := NewMatcher(key.text, op, val.text)
		if err != nil {
			return nil, err
		}
		sel.Matchers = append(sel.Matchers, m)
		if p.peek().kind == tokComma {
			p.next()
		}
	}
	p.next() // '}'
	return sel, nil
}

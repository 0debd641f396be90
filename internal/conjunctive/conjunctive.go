// Package conjunctive extends the matrix CFPQ algorithm to conjunctive
// grammars (Okhotin), the paper's Section 7 research direction: "our
// algorithm can be trivially generalized to work on this grammars because
// parsing with conjunctive and Boolean grammars can be expressed by matrix
// multiplication. … Our hypothesis is that it would produce the upper
// approximation of a solution."
//
// A conjunctive grammar production has the form
//
//	A → α₁ & α₂ & … & αₖ
//
// meaning a string derives from A only if it derives from *every* conjunct
// αᵢ. In the matrix closure this becomes an intersection of products:
//
//	T_A |= (T_B₁ × T_C₁) ∩ (T_B₂ × T_C₂) ∩ …
//
// On linear inputs (string/chain graphs) this computes exactly the
// conjunctive language (Okhotin's matrix parsing). On graphs with cycles
// the conjuncts may be witnessed by *different* paths between the same
// node pair, so — exactly as the paper hypothesises — the result is an
// upper approximation of the path relation and an exact computation of the
// "relation intersection" semantics R_A = ∩ᵢ R_αᵢ.
package conjunctive

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// Production is one conjunctive rule: every conjunct is an alternative-free
// symbol string that must independently derive the same fragment.
type Production struct {
	Lhs       string
	Conjuncts [][]grammar.Symbol
}

// String renders the production in the text format.
func (p Production) String() string {
	var b strings.Builder
	b.WriteString(p.Lhs)
	b.WriteString(" ->")
	for i, c := range p.Conjuncts {
		if i > 0 {
			b.WriteString(" &")
		}
		for _, s := range c {
			b.WriteByte(' ')
			b.WriteString(s.String())
		}
	}
	return b.String()
}

// Grammar is a conjunctive grammar: context-free productions plus
// conjunctive productions.
type Grammar struct {
	Productions []Production
}

// Parse reads a conjunctive grammar: the context-free text format with `&`
// separating conjuncts inside an alternative:
//
//	S -> A B & D C
//	A -> a A | a
//
// ε-conjuncts are not allowed (the CFPQ construction has no ε-paths other
// than empty paths).
func Parse(text string) (*Grammar, error) {
	g := &Grammar{}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		arrow := strings.Index(line, "->")
		if arrow < 0 {
			return nil, fmt.Errorf("conjunctive: line %d: missing '->'", lineNo+1)
		}
		lhs := strings.TrimSpace(line[:arrow])
		if lhs == "" || !isUpper(lhs[0]) {
			return nil, fmt.Errorf("conjunctive: line %d: bad left-hand side %q", lineNo+1, lhs)
		}
		for _, alt := range strings.Split(line[arrow+2:], "|") {
			var conjuncts [][]grammar.Symbol
			for _, conj := range strings.Split(alt, "&") {
				syms, err := parseSymbols(conj)
				if err != nil {
					return nil, fmt.Errorf("conjunctive: line %d: %w", lineNo+1, err)
				}
				if len(syms) == 0 {
					return nil, fmt.Errorf("conjunctive: line %d: empty conjunct", lineNo+1)
				}
				conjuncts = append(conjuncts, syms)
			}
			g.Productions = append(g.Productions, Production{Lhs: lhs, Conjuncts: conjuncts})
		}
	}
	if len(g.Productions) == 0 {
		return nil, fmt.Errorf("conjunctive: no productions")
	}
	return g, nil
}

// MustParse is Parse that panics on error.
func MustParse(text string) *Grammar {
	g, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return g
}

func isUpper(c byte) bool { return c >= 'A' && c <= 'Z' }

func parseSymbols(s string) ([]grammar.Symbol, error) {
	var out []grammar.Symbol
	for _, w := range strings.Fields(s) {
		if w == "eps" || w == "ε" {
			return nil, fmt.Errorf("ε-conjuncts are not supported")
		}
		if isUpper(w[0]) {
			out = append(out, grammar.NT(w))
		} else {
			out = append(out, grammar.T(w))
		}
	}
	return out, nil
}

// normal is the compiled binary normal form: terminal rules plus
// conjunctive binary rules (each conjunct exactly two non-terminals).
type normal struct {
	names     []string
	index     map[string]int
	termRules map[string][]int
	// rules[i] = conjunctive rule: lhs plus one (B, C) pair per conjunct.
	rules []conjRule
}

type conjRule struct {
	a         int
	conjuncts [][2]int
}

// compile lowers the grammar to binary normal form. Each conjunct is
// binarised independently with fresh helper non-terminals (helpers are
// plain context-free single-conjunct rules).
func (g *Grammar) compile() (*normal, error) {
	n := &normal{index: map[string]int{}, termRules: map[string][]int{}}
	intern := func(name string) int {
		if i, ok := n.index[name]; ok {
			return i
		}
		i := len(n.names)
		n.names = append(n.names, name)
		n.index[name] = i
		return i
	}
	used := map[string]bool{}
	for _, p := range g.Productions {
		used[p.Lhs] = true
		for _, c := range p.Conjuncts {
			for _, s := range c {
				if !s.Terminal {
					used[s.Name] = true
				}
			}
		}
	}
	freshID := 0
	fresh := func(base string) string {
		for {
			freshID++
			name := fmt.Sprintf("%s&%d", base, freshID)
			if !used[name] {
				used[name] = true
				return name
			}
		}
	}
	// lower reduces a symbol string to a single non-terminal index,
	// emitting helper rules as needed.
	var lower func(lhsBase string, syms []grammar.Symbol) (int, error)
	liftTerm := map[string]int{}
	termNT := func(t string) int {
		if i, ok := liftTerm[t]; ok {
			return i
		}
		name := fresh("T")
		i := intern(name)
		liftTerm[t] = i
		n.termRules[t] = append(n.termRules[t], i)
		return i
	}
	emitBinary := func(a, b, c int) {
		n.rules = append(n.rules, conjRule{a: a, conjuncts: [][2]int{{b, c}}})
	}
	lower = func(lhsBase string, syms []grammar.Symbol) (int, error) {
		switch len(syms) {
		case 0:
			return 0, fmt.Errorf("conjunctive: empty conjunct")
		case 1:
			s := syms[0]
			if s.Terminal {
				return termNT(s.Name), nil
			}
			return intern(s.Name), nil
		default:
			first, err := lower(lhsBase, syms[:1])
			if err != nil {
				return 0, err
			}
			rest, err := lower(lhsBase, syms[1:])
			if err != nil {
				return 0, err
			}
			helper := intern(fresh(lhsBase))
			emitBinary(helper, first, rest)
			return helper, nil
		}
	}
	for _, p := range g.Productions {
		a := intern(p.Lhs)
		if len(p.Conjuncts) == 1 && len(p.Conjuncts[0]) == 1 && p.Conjuncts[0][0].Terminal {
			t := p.Conjuncts[0][0].Name
			n.termRules[t] = append(n.termRules[t], a)
			continue
		}
		rule := conjRule{a: a}
		for _, c := range p.Conjuncts {
			if len(c) == 1 {
				if c[0].Terminal {
					// Single-terminal conjunct inside a multi-conjunct rule.
					lifted := termNT(c[0].Name)
					// Pair it with nothing? A length-1 conjunct constrains
					// the fragment to a single edge; model it as the
					// non-terminal itself by a unit trick: X & … where X
					// must span the same fragment. Represent as the pair
					// (lifted, ·) is impossible in binary form, so wrap:
					// treat the conjunct as the non-terminal `lifted`
					// directly via a marker pair {-1, lifted}.
					rule.conjuncts = append(rule.conjuncts, [2]int{-1, lifted})
					continue
				}
				rule.conjuncts = append(rule.conjuncts, [2]int{-1, intern(c[0].Name)})
				continue
			}
			// Binarise to exactly one (B, C) pair.
			b, err := lower(p.Lhs, c[:1])
			if err != nil {
				return nil, err
			}
			cc, err := lower(p.Lhs, c[1:])
			if err != nil {
				return nil, err
			}
			rule.conjuncts = append(rule.conjuncts, [2]int{b, cc})
		}
		n.rules = append(n.rules, rule)
	}
	for t := range n.termRules {
		sort.Ints(n.termRules[t])
	}
	return n, nil
}

// Result holds the evaluated (upper-approximation) relations.
type Result struct {
	nm   *normal
	n    int
	mats []matrix.Bool
}

// Relation returns the computed relation of the named non-terminal, sorted.
func (r *Result) Relation(nt string) []matrix.Pair {
	a, ok := r.nm.index[nt]
	if !ok {
		return nil
	}
	return matrix.Pairs(r.mats[a])
}

// Has reports membership.
func (r *Result) Has(nt string, i, j int) bool {
	a, ok := r.nm.index[nt]
	return ok && r.mats[a].Get(i, j)
}

// EvaluateContext runs the conjunctive matrix closure on the graph with the
// given backend (nil selects the serial sparse backend), with cooperative
// cancellation between fixpoint passes. Per fixpoint pass, each conjunctive
// rule contributes the intersection of its conjunct products.
func EvaluateContext(ctx context.Context, g *graph.Graph, cg *Grammar, be matrix.Backend) (*Result, error) {
	nm, err := cg.compile()
	if err != nil {
		return nil, err
	}
	if be == nil {
		be = matrix.Sparse()
	}
	n := g.Nodes()
	res := &Result{nm: nm, n: n, mats: make([]matrix.Bool, len(nm.names))}
	for a := range res.mats {
		res.mats[a] = be.NewMatrix(n)
	}
	for t, as := range nm.termRules {
		for _, e := range g.EdgesWithLabel(t) {
			for _, a := range as {
				res.mats[a].Set(e.From, e.To)
			}
		}
	}
	for changed := true; changed; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed = false
		for _, rule := range nm.rules {
			acc := be.NewMatrix(n)
			for ci, c := range rule.conjuncts {
				var prod matrix.Bool
				if c[0] < 0 {
					// Unit conjunct: the fragment must itself derive from
					// the single non-terminal c[1].
					prod = res.mats[c[1]].Clone()
				} else {
					prod = be.NewMatrix(n)
					prod.AddMul(res.mats[c[0]], res.mats[c[1]])
				}
				if ci == 0 {
					acc.Or(prod)
				} else {
					acc.And(prod)
				}
			}
			if res.mats[rule.a].Or(acc) {
				changed = true
			}
		}
	}
	return res, nil
}

// Recognize reports whether the word derives from start under the
// conjunctive grammar, by evaluating on the word's chain graph (exact on
// linear inputs per Okhotin's matrix parsing).
func Recognize(ctx context.Context, cg *Grammar, start string, word []string) (bool, error) {
	res, err := EvaluateContext(ctx, graph.Word(word), cg, nil)
	if err != nil {
		return false, err
	}
	return res.Has(start, 0, len(word)), nil
}

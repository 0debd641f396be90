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
// αᵢ. In the matrix closure this becomes an intersection of products,
//
//	T_A |= (T_B₁ × T_C₁) ∩ (T_B₂ × T_C₂) ∩ …
//
// which this package does not evaluate itself: compile names every
// conjunct by one non-terminal of an ordinary CNF (a helper Pᵢ → Bᵢ Cᵢ for
// a product), and the core engine's one loop runs the products as the
// context-free rules they are and the rules A → P₁ & … & Pₘ left over
// semi-naively beside them, next_A |= ⋃_c (Δ_Pc ∩ ⋂_{d≠c} T_Pd) — with the
// caller's backend, memory budget, trace and Stats.
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
	"strings"

	"cfpq/internal/core"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
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

// compile lowers the grammar to what the core engine evaluates: an ordinary
// CNF plus intersection rules over its non-terminals. Every conjunct
// becomes one non-terminal — itself when it is one, a lifted terminal, or
// a fresh helper H → X Y binarising a longer string — so a production with
// a single conjunct is a plain terminal or binary rule, and only unit
// rules and real conjunctions A → P₁ & … & Pₘ are left to the meets.
func (g *Grammar) compile() (*grammar.CNF, []core.Meet, error) {
	var (
		names     []string
		index     = map[string]int{}
		termRules = map[string][]int{}
		binary    []grammar.BinaryRule
		meets     []core.Meet
	)
	intern := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		index[name] = len(names)
		names = append(names, name)
		return len(names) - 1
	}
	// The grammar's own names first, so no helper can take one.
	for _, p := range g.Productions {
		intern(p.Lhs)
		if len(p.Conjuncts) == 0 {
			return nil, nil, fmt.Errorf("conjunctive: %s has no conjunct", p.Lhs)
		}
		for _, c := range p.Conjuncts {
			if len(c) == 0 {
				return nil, nil, fmt.Errorf("conjunctive: empty conjunct in %s", p)
			}
			for _, s := range c {
				if !s.Terminal {
					intern(s.Name)
				}
			}
		}
	}
	freshID := 0
	fresh := func(base string) int {
		for {
			freshID++
			name := fmt.Sprintf("%s&%d", base, freshID)
			if _, taken := index[name]; !taken {
				return intern(name)
			}
		}
	}
	lifted := map[string]int{}
	// nt reduces a symbol string to a single non-terminal, emitting the
	// helper rules it needs.
	var nt func(base string, syms []grammar.Symbol) int
	nt = func(base string, syms []grammar.Symbol) int {
		if len(syms) > 1 {
			h := fresh(base)
			binary = append(binary, grammar.BinaryRule{A: h, B: nt(base, syms[:1]), C: nt(base, syms[1:])})
			return h
		}
		s := syms[0]
		if !s.Terminal {
			return intern(s.Name)
		}
		if _, ok := lifted[s.Name]; !ok {
			lifted[s.Name] = fresh("T")
			termRules[s.Name] = append(termRules[s.Name], lifted[s.Name])
		}
		return lifted[s.Name]
	}
	for _, p := range g.Productions {
		a, first := intern(p.Lhs), p.Conjuncts[0]
		switch {
		case len(p.Conjuncts) == 1 && len(first) > 1:
			binary = append(binary, grammar.BinaryRule{A: a, B: nt(p.Lhs, first[:1]), C: nt(p.Lhs, first[1:])})
		case len(p.Conjuncts) == 1 && first[0].Terminal:
			termRules[first[0].Name] = append(termRules[first[0].Name], a)
		default:
			m := core.Meet{A: a}
			for _, c := range p.Conjuncts {
				m.P = append(m.P, nt(p.Lhs, c))
			}
			meets = append(meets, m)
		}
	}
	cnf, err := grammar.NewCNF(names, termRules, binary)
	return cnf, meets, err
}

// EvaluateContext evaluates the conjunctive grammar on the graph with the
// given engine — its backend, memory budget and tracer, cancellation
// between passes — and returns the index of every non-terminal's
// (upper-approximation) relation with the closure's statistics.
func EvaluateContext(ctx context.Context, eng *core.Engine, g *graph.Graph, cg *Grammar) (*core.Index, core.Stats, error) {
	cnf, meets, err := cg.compile()
	if err != nil {
		return nil, core.Stats{}, err
	}
	return eng.RunContext(ctx, g, cnf, meets...)
}

package grammar

import (
	"fmt"
	"sort"
	"strings"
)

// CNF is a grammar compiled to Chomsky Normal Form with integer-indexed
// non-terminals, the representation consumed by the matrix CFPQ engine.
//
// Productions have exactly two forms:
//
//	A → B C  — stored in Binary
//	A → x    — stored in TermRules
//
// ε-productions are removed during normalisation; Nullable records which
// original non-terminals could derive ε so that engines can account for
// empty paths (node v to itself) when asked to.
type CNF struct {
	// Names maps non-terminal index → name. Original non-terminals keep
	// their names; auxiliary non-terminals introduced by normalisation get
	// fresh names containing '#' or a "T_" prefix.
	Names []string

	index map[string]int

	// TermRules maps a terminal to the (sorted) non-terminal indices A with
	// A → x.
	TermRules map[string][]int

	// Binary lists all A → B C productions.
	Binary []BinaryRule

	// Nullable holds the original non-terminals that derive ε. They have no
	// ε-production in the CNF (CNF forbids them) but a query engine may add
	// the reflexive pairs (v, v) for them.
	Nullable map[string]bool
}

// BinaryRule is a production A → B C over non-terminal indices.
type BinaryRule struct {
	A, B, C int
}

// NonterminalCount returns |N| of the CNF grammar.
func (c *CNF) NonterminalCount() int { return len(c.Names) }

// Index returns the index of the named non-terminal and whether it exists.
func (c *CNF) Index(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// MustIndex is Index that panics when the non-terminal is unknown.
func (c *CNF) MustIndex(name string) int {
	i, ok := c.index[name]
	if !ok {
		panic(fmt.Sprintf("grammar: unknown non-terminal %q", name))
	}
	return i
}

// Terminals returns the sorted terminal alphabet of the CNF grammar.
func (c *CNF) Terminals() []string {
	out := make([]string, 0, len(c.TermRules))
	for t := range c.TermRules {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// String renders the CNF grammar in the grammar text format.
func (c *CNF) String() string {
	var b strings.Builder
	for _, r := range c.Binary {
		fmt.Fprintf(&b, "%s -> %s %s\n", c.Names[r.A], c.Names[r.B], c.Names[r.C])
	}
	terms := c.Terminals()
	for _, t := range terms {
		for _, a := range c.TermRules[t] {
			fmt.Fprintf(&b, "%s -> %s\n", c.Names[a], T(t))
		}
	}
	return b.String()
}

// Grammar converts the CNF back to a plain Grammar (without ε-productions).
func (c *CNF) Grammar() *Grammar {
	g := New()
	for _, r := range c.Binary {
		g.Add(c.Names[r.A], NT(c.Names[r.B]), NT(c.Names[r.C]))
	}
	for _, t := range c.Terminals() {
		for _, a := range c.TermRules[t] {
			g.Add(c.Names[a], T(t))
		}
	}
	return g
}

// Validate checks the CNF invariants.
func (c *CNF) Validate() error {
	n := len(c.Names)
	seen := map[string]int{}
	for i, name := range c.Names {
		if name == "" {
			return fmt.Errorf("cnf: empty name at index %d", i)
		}
		if j, dup := seen[name]; dup {
			return fmt.Errorf("cnf: duplicate non-terminal name %q at indices %d and %d", name, j, i)
		}
		seen[name] = i
		if c.index[name] != i {
			return fmt.Errorf("cnf: index map inconsistent for %q", name)
		}
	}
	for _, r := range c.Binary {
		if r.A < 0 || r.A >= n || r.B < 0 || r.B >= n || r.C < 0 || r.C >= n {
			return fmt.Errorf("cnf: binary rule %v out of range (|N|=%d)", r, n)
		}
	}
	for t, as := range c.TermRules {
		if t == "" {
			return fmt.Errorf("cnf: empty terminal")
		}
		for _, a := range as {
			if a < 0 || a >= n {
				return fmt.Errorf("cnf: terminal rule for %q out of range: %d", t, a)
			}
		}
	}
	return nil
}

// ToCNF transforms an arbitrary context-free grammar into Chomsky Normal
// Form. The transformation pipeline is the textbook one, adapted to
// start-symbol-free grammars:
//
//  1. binarise long rules (A → X₁ X₂ … Xₖ, k > 2),
//  2. lift terminals occurring in rules of length ≥ 2 into fresh
//     non-terminals (T_x → x),
//  3. eliminate ε-productions (recording nullability of the originals),
//  4. eliminate unit rules (A → B),
//  5. drop non-generating non-terminals and rules mentioning them.
//
// Unreachable symbols are NOT removed: without a start symbol every
// non-terminal is queryable. Language preservation: for every original
// non-terminal A, L(CNF_A) = L(G_A) \ {ε}, and Nullable[A] records whether
// ε ∈ L(G_A).
func ToCNF(g *Grammar) (*CNF, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	work := g.Clone()
	used := map[string]bool{}
	for _, nt := range work.Nonterminals() {
		used[nt] = true
	}
	fresh := freshNamer(used)

	binarize(work, fresh)
	liftTerminals(work, fresh)
	nullable := work.Nullable()
	eliminateEpsilon(work, nullable)
	eliminateUnits(work)
	dropNonGenerating(work)
	dedupe(work)

	return compileCNF(work, nullable)
}

// MustCNF is ToCNF that panics on error.
func MustCNF(g *Grammar) *CNF {
	c, err := ToCNF(g)
	if err != nil {
		panic(err)
	}
	return c
}

// ParseCNF parses grammar text and converts it to CNF in one step.
func ParseCNF(text string) (*CNF, error) {
	g, err := ParseString(text)
	if err != nil {
		return nil, err
	}
	return ToCNF(g)
}

// MustParseCNF is ParseCNF that panics on error.
func MustParseCNF(text string) *CNF {
	c, err := ParseCNF(text)
	if err != nil {
		panic(err)
	}
	return c
}

func freshNamer(used map[string]bool) func(base string) string {
	return func(base string) string {
		for i := 1; ; i++ {
			name := fmt.Sprintf("%s#%d", base, i)
			if !used[name] {
				used[name] = true
				return name
			}
		}
	}
}

// binarize replaces A → X₁ X₂ … Xₖ (k > 2) with a right-nested chain of
// binary rules through fresh non-terminals.
func binarize(g *Grammar, fresh func(string) string) {
	var out []Production
	for _, p := range g.Productions {
		for len(p.Rhs) > 2 {
			rest := fresh(p.Lhs)
			out = append(out, Production{Lhs: p.Lhs, Rhs: []Symbol{p.Rhs[0], NT(rest)}})
			p = Production{Lhs: rest, Rhs: p.Rhs[1:]}
		}
		out = append(out, p)
	}
	g.Productions = out
}

// liftTerminals replaces terminals in bodies of length ≥ 2 with fresh
// non-terminals T_x having the single production T_x → x. A single lift
// non-terminal is shared per terminal.
func liftTerminals(g *Grammar, fresh func(string) string) {
	lift := map[string]string{}
	var extra []Production
	for i, p := range g.Productions {
		if len(p.Rhs) < 2 {
			continue
		}
		for j, s := range p.Rhs {
			if !s.Terminal {
				continue
			}
			nt, ok := lift[s.Name]
			if !ok {
				nt = fresh("T_" + sanitizeName(s.Name))
				lift[s.Name] = nt
				extra = append(extra, Production{Lhs: nt, Rhs: []Symbol{T(s.Name)}})
			}
			g.Productions[i].Rhs[j] = NT(nt)
		}
	}
	g.Productions = append(g.Productions, extra...)
}

func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "t"
	}
	return b.String()
}

// eliminateEpsilon removes ε-productions. Bodies here have length ≤ 2, so
// for A → B C with nullable B we add A → C, and symmetrically. Unit bodies
// whose symbol is nullable produce no new rule (the ε-instance is dropped).
func eliminateEpsilon(g *Grammar, nullable map[string]bool) {
	var out []Production
	seen := map[string]bool{}
	add := func(p Production) {
		key := p.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	for _, p := range g.Productions {
		switch len(p.Rhs) {
		case 0:
			// dropped
		case 1:
			add(p)
		case 2:
			add(p)
			b, c := p.Rhs[0], p.Rhs[1]
			if !b.Terminal && nullable[b.Name] {
				add(Production{Lhs: p.Lhs, Rhs: []Symbol{c}})
			}
			if !c.Terminal && nullable[c.Name] {
				add(Production{Lhs: p.Lhs, Rhs: []Symbol{b}})
			}
		default:
			panic("grammar: eliminateEpsilon called before binarize")
		}
	}
	g.Productions = out
}

// eliminateUnits removes unit rules A → B by computing the unit-closure and
// copying every non-unit body of B to A.
func eliminateUnits(g *Grammar) {
	// unitPairs[a] = set of b such that a ⇒* b via unit rules (including a).
	nts := g.Nonterminals()
	unit := map[string]map[string]bool{}
	for _, a := range nts {
		unit[a] = map[string]bool{a: true}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions {
			if len(p.Rhs) != 1 || p.Rhs[0].Terminal {
				continue
			}
			b := p.Rhs[0].Name
			for c := range unit[b] {
				if !unit[p.Lhs][c] {
					unit[p.Lhs][c] = true
					changed = true
				}
			}
		}
	}
	byLhs := map[string][]Production{}
	for _, p := range g.Productions {
		if len(p.Rhs) == 1 && !p.Rhs[0].Terminal {
			continue // unit rule, dropped
		}
		byLhs[p.Lhs] = append(byLhs[p.Lhs], p)
	}
	var out []Production
	seen := map[string]bool{}
	for _, a := range nts {
		reach := make([]string, 0, len(unit[a]))
		for b := range unit[a] {
			reach = append(reach, b)
		}
		sort.Strings(reach)
		for _, b := range reach {
			for _, p := range byLhs[b] {
				np := Production{Lhs: a, Rhs: p.Rhs}
				key := np.String()
				if !seen[key] {
					seen[key] = true
					out = append(out, np)
				}
			}
		}
	}
	g.Productions = out
}

// dropNonGenerating removes rules that mention non-terminals which cannot
// derive any terminal string.
func dropNonGenerating(g *Grammar) {
	gen := g.Generating()
	var out []Production
	for _, p := range g.Productions {
		ok := gen[p.Lhs]
		for _, s := range p.Rhs {
			if !s.Terminal && !gen[s.Name] {
				ok = false
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	g.Productions = out
}

func dedupe(g *Grammar) {
	seen := map[string]bool{}
	var out []Production
	for _, p := range g.Productions {
		key := p.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	g.Productions = out
}

func compileCNF(g *Grammar, nullable map[string]bool) (*CNF, error) {
	var names []string
	index := map[string]int{}
	termRules := map[string][]int{}
	var binary []BinaryRule
	intern := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		index[name] = len(names)
		names = append(names, name)
		return len(names) - 1
	}
	// Intern left-hand sides in first-appearance order for stable output.
	for _, p := range g.Productions {
		intern(p.Lhs)
	}
	for _, p := range g.Productions {
		switch len(p.Rhs) {
		case 1:
			s := p.Rhs[0]
			if !s.Terminal {
				return nil, fmt.Errorf("cnf: internal error: unit rule %s survived", p)
			}
			termRules[s.Name] = append(termRules[s.Name], intern(p.Lhs))
		case 2:
			b, cs := p.Rhs[0], p.Rhs[1]
			if b.Terminal || cs.Terminal {
				return nil, fmt.Errorf("cnf: internal error: terminal in binary rule %s", p)
			}
			binary = append(binary, BinaryRule{
				A: intern(p.Lhs), B: intern(b.Name), C: intern(cs.Name),
			})
		default:
			return nil, fmt.Errorf("cnf: internal error: rule of length %d survived: %s", len(p.Rhs), p)
		}
	}
	c, err := NewCNF(names, termRules, binary)
	if err != nil {
		return nil, err
	}
	for nt := range nullable {
		if nullable[nt] {
			c.Nullable[nt] = true
		}
	}
	return c, nil
}

// NewCNF assembles a CNF from rules already over non-terminal indices into
// names — for a front end that lowers to the normal form itself (the
// conjunctive grammars do). It sorts and dedupes the terminal rules in
// place and validates the result; no non-terminal is nullable.
func NewCNF(names []string, termRules map[string][]int, binary []BinaryRule) (*CNF, error) {
	c := &CNF{Names: names, index: make(map[string]int, len(names)), TermRules: termRules, Binary: binary, Nullable: map[string]bool{}}
	for i, name := range names {
		c.index[name] = i
	}
	for t, as := range termRules {
		sort.Ints(as)
		termRules[t] = uniqInts(as)
	}
	return c, c.Validate()
}

func uniqInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

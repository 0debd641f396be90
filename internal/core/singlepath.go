package core

import (
	"context"
	"fmt"
	"sort"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

// PathIndex implements the paper's Section 5: the closure over matrices
// whose entries are (non-terminal, path length) pairs. Entry lengths[a][i]
// maps column j → l_A, the length of some path i π j with A ⇒* l(π).
//
// As in the paper, the length is fixed the first time a non-terminal is
// derived for a cell and never overwritten ("if some non-terminal A with an
// associated path length l₁ is in a⁽ᵖ⁾ᵢⱼ, then A is not added ... with an
// associated path length l₂ for all l₂ ≠ l₁"). The recorded length is
// therefore *a* witness length — not necessarily minimal — and paper
// Theorem 5 guarantees a path of exactly that length exists, which Path
// recovers by the paper's "simple search".
type PathIndex struct {
	cnf     *grammar.CNF
	g       *graph.Graph
	n       int
	lengths []map[int32]uint32 // flat [a*n + i] → column → length
}

// NewPathIndexContext evaluates the single-path closure for the graph and
// grammar, with cooperative cancellation between fixpoint passes. The
// closure is the same fixpoint as Algorithm 1, with the scalar semiring
// replaced by length bookkeeping. Lengths are fixed at first derivation, as
// in the paper.
func NewPathIndexContext(ctx context.Context, g *graph.Graph, cnf *grammar.CNF) (*PathIndex, error) {
	return newPathIndex(ctx, g, cnf, false)
}

// NewShortestPathIndexContext is NewPathIndexContext over the min-plus
// relaxation: the recorded length of every pair is the *minimum*
// witness-path length, as in Hellings' single-path algorithm (which the
// paper contrasts with: "the length of these paths is not necessarily upper
// bounded" — here it is minimal, at the cost of more fixpoint work). Path
// extraction works unchanged and returns a shortest witness.
func NewShortestPathIndexContext(ctx context.Context, g *graph.Graph, cnf *grammar.CNF) (*PathIndex, error) {
	return newPathIndex(ctx, g, cnf, true)
}

func newPathIndex(ctx context.Context, g *graph.Graph, cnf *grammar.CNF, shortest bool) (*PathIndex, error) {
	n := g.Nodes()
	p := &PathIndex{
		cnf:     cnf,
		g:       g,
		n:       n,
		lengths: make([]map[int32]uint32, cnf.NonterminalCount()*n),
	}
	row := func(a, i int) map[int32]uint32 {
		r := p.lengths[a*n+i]
		if r == nil {
			r = map[int32]uint32{}
			p.lengths[a*n+i] = r
		}
		return r
	}
	// Initialisation: every matching edge contributes length 1.
	for t, as := range cnf.TermRules {
		for _, e := range g.EdgesWithLabel(t) {
			for _, a := range as {
				r := row(a, e.From)
				if _, ok := r[int32(e.To)]; !ok {
					r[int32(e.To)] = 1
				}
			}
		}
	}
	// Fixpoint: for A → B C, (i,k,l_B) and (k,j,l_C) yield (i,j,l_B+l_C).
	// First-found mode never overwrites (the paper's rule); shortest mode
	// relaxes with min until no length decreases (lengths are positive
	// integers bounded below, so this terminates). The context is checked
	// between passes.
	for changed := true; changed; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed = false
		for _, r := range cnf.Binary {
			for i := 0; i < n; i++ {
				brow := p.lengths[r.B*n+i]
				if len(brow) == 0 {
					continue
				}
				for k, lb := range brow {
					crow := p.lengths[r.C*n+int(k)]
					if len(crow) == 0 {
						continue
					}
					var arow map[int32]uint32
					for j, lc := range crow {
						if arow == nil {
							arow = row(r.A, i)
						}
						cur, ok := arow[j]
						switch {
						case !ok:
							arow[j] = lb + lc
							changed = true
						case shortest && lb+lc < cur:
							arow[j] = lb + lc
							changed = true
						}
					}
				}
			}
		}
	}
	return p, nil
}

// Length returns the recorded witness-path length for (nt, i, j), or false
// when (i, j) ∉ R_nt.
func (p *PathIndex) Length(nt string, i, j int) (int, bool) {
	a, ok := p.cnf.Index(nt)
	if !ok {
		return 0, false
	}
	r := p.lengths[a*p.n+i]
	if r == nil {
		return 0, false
	}
	l, ok := r[int32(j)]
	return int(l), ok
}

// Has reports whether (i, j) ∈ R_nt; the PathIndex computes the same
// relations as the Boolean closure (paper Theorem 2 + Theorem 5).
func (p *PathIndex) Has(nt string, i, j int) bool {
	_, ok := p.Length(nt, i, j)
	return ok
}

// Relation returns R_nt as a sorted pair list together with the recorded
// witness length of each pair.
func (p *PathIndex) Relation(nt string) []LengthPair {
	a, ok := p.cnf.Index(nt)
	if !ok {
		return nil
	}
	var out []LengthPair
	for i := 0; i < p.n; i++ {
		r := p.lengths[a*p.n+i]
		for j, l := range r {
			out = append(out, LengthPair{I: i, J: int(j), Length: int(l)})
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].I != out[y].I {
			return out[x].I < out[y].I
		}
		return out[x].J < out[y].J
	})
	return out
}

// LengthPair is a pair of R_A annotated with its witness-path length.
type LengthPair struct {
	I, J   int
	Length int
}

// Path recovers a concrete path i π j with nt ⇒* l(π) of exactly the
// recorded witness length, by the paper's simple search: a cell of length 1
// is an edge whose label has a terminal rule for nt; a longer cell splits
// at some middle node r through a binary rule A → B C with
// l_B(i,r) + l_C(r,j) = l_A(i,j). Returns false when (i, j) ∉ R_nt.
func (p *PathIndex) Path(nt string, i, j int) ([]graph.Edge, bool) {
	a, ok := p.cnf.Index(nt)
	if !ok {
		return nil, false
	}
	return p.path(a, i, j)
}

func (p *PathIndex) path(a, i, j int) ([]graph.Edge, bool) {
	r := p.lengths[a*p.n+i]
	if r == nil {
		return nil, false
	}
	la, ok := r[int32(j)]
	if !ok {
		return nil, false
	}
	if la == 1 {
		for t, as := range p.cnf.TermRules {
			if !containsInt(as, a) {
				continue
			}
			for _, e := range p.g.EdgesWithLabel(t) {
				if e.From == i && e.To == j {
					return []graph.Edge{e}, true
				}
			}
		}
		// Unreachable if the index is consistent.
		panic(fmt.Sprintf("core: no edge witnesses (%s, %d, %d) of length 1", p.cnf.Names[a], i, j))
	}
	for _, rule := range p.cnf.Binary {
		if rule.A != a {
			continue
		}
		brow := p.lengths[rule.B*p.n+i]
		for k, lb := range brow {
			if lb >= la {
				continue
			}
			crow := p.lengths[rule.C*p.n+int(k)]
			if lc, ok := crow[int32(j)]; ok && lb+lc == la {
				left, okL := p.path(rule.B, i, int(k))
				if !okL {
					continue
				}
				right, okR := p.path(rule.C, int(k), j)
				if !okR {
					continue
				}
				return append(left, right...), true
			}
		}
	}
	panic(fmt.Sprintf("core: no split witnesses (%s, %d, %d) of length %d", p.cnf.Names[a], i, j, la))
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Labels extracts the label word of a path.
func Labels(path []graph.Edge) []string {
	out := make([]string, len(path))
	for i, e := range path {
		out[i] = e.Label
	}
	return out
}

// ValidatePath checks that path is contiguous from i to j.
func ValidatePath(path []graph.Edge, i, j int) error {
	at := i
	for idx, e := range path {
		if e.From != at {
			return fmt.Errorf("core: edge %d starts at %d, want %d", idx, e.From, at)
		}
		at = e.To
	}
	if at != j {
		return fmt.Errorf("core: path ends at %d, want %d", at, j)
	}
	return nil
}

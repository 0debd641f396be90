package core

import (
	"context"
	"fmt"
	"slices"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

// PathIndex implements the paper's Section 5: the closure over matrices
// whose entries are (non-terminal, path length) pairs — the Boolean index
// plus, per set bit, l_A, the length of some path i π j with A ⇒* l(π).
//
// As in the paper, the length is fixed the first time a non-terminal is
// derived for a cell and never overwritten ("if some non-terminal A with an
// associated path length l₁ is in a⁽ᵖ⁾ᵢⱼ, then A is not added ... with an
// associated path length l₂ for all l₂ ≠ l₁"). The recorded length is
// therefore *a* witness length — not necessarily minimal — and paper
// Theorem 5 guarantees a path of exactly that length exists, which Path
// recovers by the paper's "simple search".
type PathIndex struct {
	ix      *Index
	g       *graph.Graph
	lengths map[[3]int]uint32 // (a, i, j) → l_A(i, j), for exactly the set bits of ix
}

// SinglePathContext evaluates the single-path closure for the graph and
// grammar. It is RunContext — the engine's one loop, with its backend,
// memory budget, trace and cancellation between passes — plus a per-pass
// hook: every bit of T₀ is stamped with length 1, and every bit a pass adds
// with l_B + l_C of the first split, in rule then column order, among the
// entries stamped by earlier passes (one exists: the pass derived the bit
// from them). Lengths are thus fixed at first derivation, in Algorithm 1's
// state order, and the same on every run and backend.
func (e *Engine) SinglePathContext(ctx context.Context, g *graph.Graph, cnf *grammar.CNF) (*PathIndex, Stats, error) {
	p := &PathIndex{g: g, lengths: map[[3]int]uint32{}}
	_, stats, err := e.run(ctx, g, cnf, nil, p.stamp)
	if err != nil {
		return nil, stats, err
	}
	return p, stats, nil
}

// ShortestPathContext is SinglePathContext followed by a min-plus
// relaxation over the relation it fixed: the recorded length of every pair
// becomes the *minimum* witness-path length, as in Hellings' single-path
// algorithm (which the paper contrasts with: "the length of these paths is
// not necessarily upper bounded" — here it is minimal, at the cost of more
// fixpoint work). Path extraction works unchanged and returns a shortest
// witness.
func (e *Engine) ShortestPathContext(ctx context.Context, g *graph.Graph, cnf *grammar.CNF) (*PathIndex, Stats, error) {
	p, stats, err := e.SinglePathContext(ctx, g, cnf)
	if err == nil {
		err = p.shorten(ctx)
	}
	if err != nil {
		return nil, stats, err
	}
	return p, stats, nil
}

// stamp is the single-path hook: it records a length for every bit of the
// frontier. Lengths found in a pass are committed together after it, so a
// split only ever reads entries of the state the pass multiplied.
func (p *PathIndex) stamp(ix *Index, f *frontier) {
	p.ix = ix
	type entry struct {
		cell [3]int
		l    uint32
	}
	var found []entry
	for a, m := range f.delta {
		if f.whole {
			m = ix.mats[a]
		} else if !f.live[a] {
			continue
		}
		m.Range(func(i, j int) bool {
			l := uint32(1) // a bit of T₀ is an edge
			if !f.whole {
				_, _, l = p.split(a, i, j, 0)
			}
			found = append(found, entry{[3]int{a, i, j}, l})
			return true
		})
	}
	for _, e := range found {
		p.lengths[e.cell] = e.l
	}
}

// split searches the rules A → B C, in order, and row i of T_B, in column
// order, for the first middle node k with recorded lengths l_B(i,k) and
// l_C(k,j) — summing to want, when want is non-zero — and returns the
// rule, k and l_B + l_C; l = 0 when there is none.
func (p *PathIndex) split(a, i, j int, want uint32) (r grammar.BinaryRule, k int, l uint32) {
	for _, r = range p.ix.cnf.Binary {
		if r.A != a {
			continue
		}
		p.ix.mats[r.B].RangeRow(i, func(mid int) bool {
			if p.ix.mats[r.C].Get(mid, j) { // a bit test, before two map lookups
				lb, lc := p.lengths[[3]int{r.B, i, mid}], p.lengths[[3]int{r.C, mid, j}]
				if lb != 0 && lc != 0 && (want == 0 || lb+lc == want) {
					k, l = mid, lb+lc
				}
			}
			return l == 0
		})
		if l != 0 {
			break
		}
	}
	return r, k, l
}

// shorten lowers every recorded length to the minimum over all derivations
// by min-plus relaxation: for A → B C, l_A(i,j) ← min(l_A(i,j), l_B(i,k) +
// l_C(k,j)) until no length decreases (positive integers, so it
// terminates), checking the context between passes. It inserts no pair: the
// relation is closed, so every (i, j) it reaches has a length. It is not
// the engine's loop because a length can fall many passes after its pair
// was derived.
func (p *PathIndex) shorten(ctx context.Context) error {
	for changed := true; changed; {
		if err := ctx.Err(); err != nil {
			return err
		}
		changed = false
		for _, r := range p.ix.cnf.Binary {
			p.ix.mats[r.B].Range(func(i, k int) bool {
				lb := p.lengths[[3]int{r.B, i, k}]
				return p.ix.mats[r.C].RangeRow(k, func(j int) bool {
					if l := lb + p.lengths[[3]int{r.C, k, j}]; l < p.lengths[[3]int{r.A, i, j}] {
						p.lengths[[3]int{r.A, i, j}] = l
						changed = true
					}
					return true
				})
			})
		}
	}
	return nil
}

// Length returns the recorded witness-path length for (nt, i, j), or false
// when (i, j) ∉ R_nt — as for any node outside the graph.
func (p *PathIndex) Length(nt string, i, j int) (int, bool) {
	a, ok := p.ix.cnf.Index(nt)
	if !ok {
		return 0, false
	}
	l, ok := p.lengths[[3]int{a, i, j}]
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
	a, ok := p.ix.cnf.Index(nt)
	if !ok {
		return nil
	}
	var out []LengthPair
	p.ix.mats[a].Range(func(i, j int) bool {
		out = append(out, LengthPair{I: i, J: j, Length: int(p.lengths[[3]int{a, i, j}])})
		return true
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
	a, ok := p.ix.cnf.Index(nt)
	if !ok {
		return nil, false
	}
	return p.path(a, i, j)
}

func (p *PathIndex) path(a, i, j int) ([]graph.Edge, bool) {
	la, ok := p.lengths[[3]int{a, i, j}]
	if !ok {
		return nil, false
	}
	name := p.ix.cnf.Names[a]
	if la == 1 {
		for t, as := range p.ix.cnf.TermRules {
			if !slices.Contains(as, a) {
				continue
			}
			for _, e := range p.g.EdgesWithLabel(t) {
				if e.From == i && e.To == j {
					return []graph.Edge{e}, true
				}
			}
		}
		// Unreachable if the index is consistent.
		panic(fmt.Sprintf("core: no edge witnesses (%s, %d, %d) of length 1", name, i, j))
	}
	r, k, l := p.split(a, i, j, la)
	if l == 0 {
		panic(fmt.Sprintf("core: no split witnesses (%s, %d, %d) of length %d", name, i, j, la))
	}
	left, _ := p.path(r.B, i, k)
	right, _ := p.path(r.C, k, j)
	return append(left, right...), true
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

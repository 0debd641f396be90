package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"cfpq/internal/graph"
)

// AllPathsOptions bounds path enumeration. On cyclic graphs the all-path
// semantics can denote infinitely many paths (the paper cites this as the
// reason annotated grammars were proposed), so enumeration must be bounded.
type AllPathsOptions struct {
	// MaxLength bounds the length (edge count) of returned paths. Zero
	// selects a generous default derived from the graph and grammar size.
	MaxLength int
	// MaxPaths stops enumeration after this many distinct paths.
	// Zero means 1024.
	MaxPaths int
}

// enumState carries enumeration bookkeeping: distinct results, a seen set
// (ambiguous grammars derive the same path several ways), and a work budget
// that bounds the exponential worst case of derivation enumeration.
type enumState struct {
	g        *graph.Graph
	out      [][]graph.Edge
	seen     map[string]bool
	maxPaths int
	budget   int
}

func (st *enumState) full() bool { return len(st.out) >= st.maxPaths || st.budget <= 0 }

func pathKey(p []graph.Edge) string {
	var b strings.Builder
	for _, e := range p {
		fmt.Fprintf(&b, "%d,%s,%d;", e.From, e.Label, e.To)
	}
	return b.String()
}

// AllPathsContext enumerates distinct paths i π j with nt ⇒* l(π), in
// nondecreasing length order, up to the given bounds. This is the all-path
// query semantics extension the paper lists as future work (Section 7); it
// reuses the Boolean closure index as the derivation oracle: a path exists
// for (A, i, j) iff A has a terminal rule matching an edge i→j, or some
// rule A → B C splits it at a node r with (i, r) ∈ R_B and (r, j) ∈ R_C.
//
// Enumeration cost can be exponential in path length for ambiguous
// grammars; an internal work budget proportional to MaxPaths keeps calls
// bounded, at the price of possible incompleteness on adversarial inputs.
//
// Cancellation is cooperative: the context is checked between length
// levels of the iterative deepening, so a cancelled enumeration returns the
// (complete) prefix found so far plus ctx.Err().
func (ix *Index) AllPathsContext(ctx context.Context, g *graph.Graph, nt string, i, j int, opts AllPathsOptions) ([][]graph.Edge, error) {
	a, ok := ix.cnf.Index(nt)
	if !ok {
		return nil, nil
	}
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 1024
	}
	if i < 0 || i >= ix.n || j < 0 || j >= ix.n || !ix.mats[a].Get(i, j) {
		return nil, nil
	}
	maxLen := opts.MaxLength
	if maxLen <= 0 {
		maxLen = ix.n * ix.cnf.NonterminalCount()
		if maxLen < 8 {
			maxLen = 8
		}
	}
	st := &enumState{
		g:        g,
		seen:     map[string]bool{},
		maxPaths: opts.MaxPaths,
		budget:   opts.MaxPaths*256 + 4096,
	}
	// Iterative deepening on exact path length keeps output ordered by
	// length and terminates on cyclic graphs.
	for l := 1; l <= maxLen && !st.full(); l++ {
		if err := ctx.Err(); err != nil {
			return st.out, err
		}
		ix.enumLength(st, a, i, j, l, func(path []graph.Edge) {
			key := pathKey(path)
			if !st.seen[key] {
				st.seen[key] = true
				st.out = append(st.out, path)
			}
		})
	}
	return st.out, nil
}

// enumLength invokes yield for every derivation of a path of exactly
// length l for (a, i, j). The same path may be yielded more than once for
// ambiguous grammars; the caller deduplicates.
func (ix *Index) enumLength(st *enumState, a, i, j, l int, yield func([]graph.Edge)) {
	if st.full() {
		return
	}
	st.budget--
	if l == 1 {
		for t, as := range ix.cnf.TermRules {
			if !slices.Contains(as, a) {
				continue
			}
			for _, e := range st.g.EdgesWithLabel(t) {
				if e.From == i && e.To == j {
					yield([]graph.Edge{e})
				}
			}
		}
		return
	}
	for _, rule := range ix.cnf.Binary {
		if rule.A != a {
			continue
		}
		mb, mc := ix.mats[rule.B], ix.mats[rule.C]
		for r := 0; r < ix.n; r++ {
			if !mb.Get(i, r) || !mc.Get(r, j) {
				continue
			}
			for split := 1; split < l; split++ {
				if st.full() {
					return
				}
				ix.enumLength(st, rule.B, i, r, split, func(left []graph.Edge) {
					ix.enumLength(st, rule.C, r, j, l-split, func(right []graph.Edge) {
						path := make([]graph.Edge, 0, len(left)+len(right))
						path = append(path, left...)
						path = append(path, right...)
						yield(path)
					})
				})
			}
		}
	}
}

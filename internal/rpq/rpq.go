package rpq

import (
	"fmt"
	"sort"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// Options refine RPQ evaluation.
type Options struct {
	// IncludeEmptyPaths adds (v, v) for every node when the expression
	// accepts the empty word (e.g. `a*`).
	IncludeEmptyPaths bool
}

// Grammar converts the expression's NFA into an equivalent right-linear
// context-free grammar: one non-terminal Qᵢ per state, productions
// Qᵢ → x Qⱼ per transition and Qᵢ → x when Qⱼ accepts. The start
// non-terminal is Q<Start>. This is the reduction that lets the matrix
// CFPQ engine answer RPQs; the evaluation itself lives in the public cfpq
// package (an Expr Request to Engine.Do), so this package holds no query
// engine of its own.
func Grammar(r Regex) (*grammar.Grammar, string, *NFA) {
	nfa := CompileNFA(r)
	g := grammar.New()
	nt := func(s int) string { return fmt.Sprintf("Q%d", s) }
	for s := 0; s < nfa.States; s++ {
		for _, tr := range nfa.Trans[s] {
			g.Add(nt(s), grammar.T(tr.Label), grammar.NT(nt(tr.To)))
			if nfa.Accepting[tr.To] {
				g.Add(nt(s), grammar.T(tr.Label))
			}
		}
	}
	if nfa.AcceptsEmpty {
		g.AddEpsilon(nt(nfa.Start))
	}
	// A state with no productions at all would make the grammar invalid
	// for parsing corner cases; the CNF pipeline drops non-generating
	// symbols, which is exactly right.
	return g, nt(nfa.Start), nfa
}

// EvaluateBFS answers the RPQ by direct breadth-first search over the
// product of the graph and the NFA — the classical RPQ algorithm. It
// serves as an independent oracle for the CFPQ reduction and as a baseline
// for benchmarks.
func EvaluateBFS(g *graph.Graph, r Regex, opts Options) []matrix.Pair {
	nfa := CompileNFA(r)
	adj := graph.NewAdjacency(g)
	n := g.Nodes()
	set := map[matrix.Pair]bool{}

	type state struct {
		node, q int
	}
	for src := 0; src < n; src++ {
		seen := map[state]bool{}
		queue := []state{{src, nfa.Start}}
		seen[queue[0]] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			// Pairs are recorded at edge-traversal time (below), so that
			// non-empty arrivals into accepting product states count even
			// when the state was already visited; the seed (empty path) is
			// handled by the IncludeEmptyPaths branch after the loop.
			for _, e := range adj.Out(cur.node) {
				for _, tr := range nfa.Trans[cur.q] {
					if tr.Label != e.Label {
						continue
					}
					next := state{e.To, tr.To}
					if !seen[next] {
						seen[next] = true
						queue = append(queue, next)
					}
					if nfa.Accepting[tr.To] {
						set[matrix.Pair{I: src, J: e.To}] = true
					}
				}
			}
		}
		if opts.IncludeEmptyPaths && nfa.AcceptsEmpty {
			set[matrix.Pair{I: src, J: src}] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	pairs := make([]matrix.Pair, 0, len(set))
	for p := range set {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].I != pairs[y].I {
			return pairs[x].I < pairs[y].I
		}
		return pairs[x].J < pairs[y].J
	})
	return pairs
}

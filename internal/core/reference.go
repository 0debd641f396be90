package core

import (
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// Algorithm1 is the paper's Algorithm 1 verbatim, kept as a reference, not
// a schedule the engine serves with: initialise T from the edges and the
// terminal rules, then repeat T ← T ∪ (T × T) until T stops changing. Every
// product of a pass reads a snapshot of the state the previous pass ended
// with, so the states it walks through are exactly the paper's T₀, T₁, ….
// visit, when non-nil, is called with each of them — k = 0 after
// initialisation, then once per pass including the final one that changed
// nothing — and must not retain or mutate the index. Tests compare the
// production schedules against it, the ablation measures what leaving it
// behind buys, and the quickstart example prints the worked example's
// states through it. It takes no budget, trace or context: use
// Engine.RunContext to answer queries.
func Algorithm1(be matrix.Backend, g *graph.Graph, cnf *grammar.CNF, visit func(k int, ix *Index)) (*Index, Stats) {
	if visit == nil {
		visit = func(int, *Index) {}
	}
	ix := NewEngine(WithBackend(be)).Init(g, cnf)
	var stats Stats
	visit(0, ix)
	for changed := true; changed; {
		prev := ix.Clone()
		changed = false
		for _, r := range cnf.Binary {
			stats.Products++
			if ix.mats[r.A].AddMul(prev.mats[r.B], prev.mats[r.C]) {
				changed = true
			}
		}
		stats.Iterations++
		visit(stats.Iterations, ix)
	}
	return ix, stats
}

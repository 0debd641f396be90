package core

import (
	"context"
	"fmt"
	"time"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// FromStats extends Stats with what the source-restricted closure did.
type FromStats struct {
	Stats
	// Frontier is the final number of active rows — the sources plus every
	// node that became reachable through a derivation fragment.
	Frontier int `json:"frontier"`
	// Saturated reports that every row became active (Frontier equals the
	// node count): the restriction saved nothing, and the index is the full
	// all-pairs closure.
	Saturated bool `json:"saturated"`
}

// RunFromContext computes the source-restricted closure: only the matrix
// rows of an *active set* — the given sources plus every node that shows up
// as the target of a computed relation entry — are maintained. At the
// fixpoint, every active row of every relation matrix is identical to the
// corresponding row of the full all-pairs closure (in particular the source
// rows), while rows outside the active set are left empty and unpaid-for.
//
// The schedule is the engine's one fixpoint loop (closure), seeded with the
// active rows only, with the bookkeeping proportional to the frontier, not
// the graph: rows are seeded from a per-node out-edge index exactly once,
// when they activate; each pass multiplies only the previous pass's new
// bits (Δ_B × T_C and T_B × Δ_C), and since a product is driven by its left
// operand's non-empty rows and only active rows ever hold a bit, no
// inactive row is computed; column activation scans only those new bits,
// cascading through a worklist (a seeded bit can activate the row its
// column names, whose seeds activate further rows, …).
// Completeness is the standard semi-naive argument plus: a missing pair
// (i, A, j) with i active would need a smaller missing pair in an active
// row, or a column never activated — both impossible at the fixpoint,
// since every added bit's column is activated when the bit is added.
//
// Activation is tracked to the end, whatever share of the rows it reaches;
// when it reaches all of them the index is the full all-pairs closure and
// FromStats.Saturated says so.
//
// Sources outside [0, g.Nodes()) are rejected; duplicate sources are fine.
func (e *Engine) RunFromContext(ctx context.Context, g *graph.Graph, cnf *grammar.CNF, sources []int) (_ *Index, fs FromStats, _ error) {
	n := g.Nodes()
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, FromStats{}, fmt.Errorf("core: source node %d out of range [0,%d)", s, n)
		}
	}
	nn := cnf.NonterminalCount()
	// Pre-allocation budget check: the restricted closure starts with the
	// index matrices plus the two frontier sets, all empty.
	est := 3 * int64(nn) * e.backend.EmptyBytes(n)
	if err := e.checkBudget(est); err != nil {
		return nil, FromStats{}, err
	}
	start := time.Now()
	defer func() { fs.Duration = time.Since(start) }()
	ix := &Index{cnf: cnf, n: n, backend: e.backend, mats: make([]matrix.Bool, nn)}
	for a := range ix.mats {
		ix.mats[a] = e.backend.NewMatrix(n)
	}
	if len(sources) == 0 || n == 0 {
		fs.observePeak(ix.Bytes())
		return ix, fs, nil
	}
	fs.observePeak(est)
	f := newFrontier(ix, nil)
	pt := e.newPassTracer(ctx, "frontier", ix)

	// Per-row seeds: for every node, the terminal-rule bits its out-edges
	// contribute (Algorithm 1's initialisation, indexed by row). Built
	// once, O(E).
	type seed struct {
		to int
		as []int // non-terminal indices with A → label
	}
	seedsByRow := make([][]seed, n)
	for t, as := range cnf.TermRules {
		for _, edge := range g.EdgesWithLabel(t) {
			seedsByRow[edge.From] = append(seedsByRow[edge.From], seed{to: edge.To, as: as})
		}
	}

	active := make([]bool, n)
	var queue []int // activated rows waiting to be seeded
	activate := func(j int) {
		if !active[j] {
			active[j] = true
			fs.Frontier++
			queue = append(queue, j)
		}
	}
	// drain seeds every queued row into the index and into the frontier
	// (the seeded bits are new, so they must multiply next pass),
	// activating the columns they name — which can queue further rows.
	drain := func() {
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, sd := range seedsByRow[i] {
				for _, a := range sd.as {
					if !ix.mats[a].Get(i, sd.to) {
						ix.mats[a].Set(i, sd.to)
						f.set(a, i, sd.to)
					}
				}
				activate(sd.to)
			}
		}
	}
	// grow runs after the seeding and after every pass: it activates the
	// columns of the frontier's bits — those nodes head derivation
	// fragments later products read rows of — and seeds the rows that
	// activates.
	grow := func() int {
		for a, m := range f.delta {
			if f.live[a] {
				m.Range(func(_, j int) bool {
					activate(j)
					return true
				})
			}
		}
		drain()
		return fs.Frontier
	}

	pt.beginPass()
	for _, s := range sources {
		activate(s)
	}
	pt.endPass(0, grow())
	if err := e.closure(ctx, ix, f, pt, &fs.Stats, grow); err != nil {
		return nil, fs, err
	}
	fs.Saturated = fs.Frontier == n
	return ix, fs, nil
}

// QueryFromContext evaluates R_start restricted to the given source nodes:
// the result is exactly QueryContext's pair list filtered to pairs whose
// first component is a source, computed without paying for the full n×n
// closure when the reachable frontier is small. FromStats reports what the
// restricted closure did (frontier size, saturation, closure work) — the
// numbers the bench harness tracks.
func (e *Engine) QueryFromContext(ctx context.Context, g *graph.Graph, gram *grammar.Grammar, start string, sources []int, opts QueryOptions) ([]matrix.Pair, FromStats, error) {
	if !gram.HasNonterminal(start) {
		return nil, FromStats{}, fmt.Errorf("core: unknown non-terminal %q", start)
	}
	cnf, err := grammar.ToCNF(gram)
	if err != nil {
		return nil, FromStats{}, err
	}
	ix, fs, err := e.RunFromContext(ctx, g, cnf, sources)
	if err != nil {
		return nil, fs, err
	}
	inSources := make([]bool, g.Nodes())
	for _, s := range sources {
		inSources[s] = true
	}
	var pairs []matrix.Pair
	if m := ix.Matrix(start); m != nil {
		m.Range(func(i, j int) bool {
			if inSources[i] {
				pairs = append(pairs, matrix.Pair{I: i, J: j})
			}
			return true
		})
	}
	if opts.IncludeEmptyPaths && cnf.Nullable[start] {
		pairs = withEmptyPaths(pairs, g.Nodes(), inSources)
	}
	return pairs, fs, nil
}

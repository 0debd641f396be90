package core

import (
	"context"
	"time"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// Delta is the per-nonterminal relation of newly derived pairs of one
// index update: exactly the bits the update added that were not in the
// index before. UpdateContext returns the union of its seed frontier and
// every propagation pass. A Delta is immutable once returned and safe to
// read concurrently.
type Delta struct {
	cnf  *grammar.CNF
	n    int
	mats []matrix.Bool // indexed like Index.mats; nil or empty = nothing new
}

// EmptyDelta returns the delta of an update that derived nothing, over the
// index's current shape — also what a serving layer reports for an update
// it abandoned before publishing.
func EmptyDelta(ix *Index) *Delta {
	return &Delta{cnf: ix.cnf, n: ix.n, mats: make([]matrix.Bool, len(ix.mats))}
}

// Nodes returns the node range the delta's pairs index into.
func (d *Delta) Nodes() int { return d.n }

// Empty reports whether the update derived nothing new.
func (d *Delta) Empty() bool { return !anySet(d.mats) }

// Pairs returns the newly derived pairs of one non-terminal in row-major
// order; unknown non-terminals and untouched relations return nil.
func (d *Delta) Pairs(nt string) []matrix.Pair {
	a, ok := d.cnf.Index(nt)
	if !ok || d.mats[a] == nil || d.mats[a].Nnz() == 0 {
		return nil
	}
	return matrix.Pairs(d.mats[a])
}

// Nonterminals returns the names whose relations gained at least one pair,
// in the grammar's nonterminal order.
func (d *Delta) Nonterminals() []string {
	var out []string
	for a, m := range d.mats {
		if m != nil && m.Nnz() > 0 {
			out = append(out, d.cnf.Names[a])
		}
	}
	return out
}

// or folds src into the accumulated delta, adopting src when the slot is
// still empty (the caller hands over ownership of src).
func (d *Delta) or(a int, src matrix.Bool) {
	if src.Nnz() == 0 {
		return
	}
	if d.mats[a] == nil {
		d.mats[a] = src
		return
	}
	d.mats[a].Or(src)
}

// UpdateContext incorporates newly added graph edges into an already-closed
// index without recomputing the closure from scratch (dynamic CFPQ). It is
// the semi-naive delta step seeded with just the new edges: the initial
// frontier contains the bits the new edges contribute through terminal
// rules, and each pass propagates only frontier bits through the binary
// rules until nothing new appears.
//
// Frontier matrices are allocated from the index's own backend (recorded at
// Init/ReadIndex time), so an index built with a parallel kernel keeps that
// kernel through updates regardless of how this engine was configured.
//
// Edges that reference nodes beyond the index's node range transparently
// grow the matrices first (Index.Grow): the old closure is unaffected by
// isolated new nodes, so grow-then-propagate is exactly the closure of the
// enlarged graph. The caller must have added the edges to the graph as well
// if it intends to keep using graph-dependent APIs (AllPathsContext,
// PathIndex); UpdateContext itself needs only the edge list.
//
// UpdateContext returns closure statistics for the incremental run (zero
// iterations of change means the edges added nothing new) and the update's
// Delta: the union of every newly derived pair — seed bits plus each
// propagation pass — which is exactly what a live-query subscriber must be
// pushed. Cancellation is cooperative, between delta passes. On
// cancellation, or when a pass would outgrow the engine's memory budget
// (*MemoryBudgetError), the index is sound (every bit justified) but the
// consequences of the new edges may be only partially propagated; the
// returned Delta then covers precisely the bits that did land in the index.
// Callers that must not serve a partially propagated state run the update
// on a Fork and publish it only on success (what cfpq.Prepared does), or
// rebuild.
func (e *Engine) UpdateContext(ctx context.Context, ix *Index, edges ...graph.Edge) (stats Stats, _ *Delta, _ error) {
	start := time.Now()
	defer func() { stats.Duration = time.Since(start) }()
	maxNode := -1
	for _, edge := range edges {
		if edge.From > maxNode {
			maxNode = edge.From
		}
		if edge.To > maxNode {
			maxNode = edge.To
		}
	}
	if maxNode >= ix.n {
		ix.Grow(maxNode + 1)
	}
	acc := EmptyDelta(ix)
	// The update's event chain starts from the pre-update index, so its
	// per-pass deltas telescope to exactly the bits this update added.
	pt := e.newPassTracer(ctx, "update", ix)
	pt.snapshot()
	delta := make([]matrix.Bool, len(ix.mats))
	for a := range delta {
		delta[a] = ix.backend.NewMatrix(ix.n)
	}
	pt.beginPass()
	for _, edge := range edges {
		for _, a := range ix.cnf.TermRules[edge.Label] {
			if !ix.mats[a].Get(edge.From, edge.To) {
				delta[a].Set(edge.From, edge.To)
				ix.mats[a].Set(edge.From, edge.To)
			}
		}
	}
	if !anySet(delta) {
		return stats, acc, nil
	}
	pt.endPass(0, 0)
	for {
		// Fold the frontier's genuinely-new bits into the returned delta.
		// An empty slot adopts the frontier matrix itself, which is safe:
		// the coming pass only reads it, and by the time a later fold Ors
		// into it the frontier has moved on to a fresh matrix.
		for a := range delta {
			acc.or(a, delta[a])
		}
		if err := ctx.Err(); err != nil {
			return stats, acc, err
		}
		pt.beginPass()
		next, err := e.step(ix, delta, nil, &stats)
		if err != nil {
			return stats, acc, err
		}
		pt.endPass(2*len(ix.cnf.Binary), 0)
		if !anySet(next) {
			return stats, acc, nil
		}
		delta = next
	}
}

// step is the one semi-naive pass every frontier-driven schedule runs: for
// each binary rule A → B C it multiplies only the frontier Δ — the bits the
// previous pass (or the seeding) added — against the full matrices,
//
//	next_A = (Δ_B × T_C  ∪  T_B × Δ_C) \ T_A
//
// ORs next into the index and returns it as the coming pass's frontier. Any
// new entry must involve at least one newly added operand entry, so no
// product the full T × T would find is missed. rows, when non-nil, masks
// the products to the active rows of the source-restricted closure. The
// pass's working set (index + frontier + the next-frontier matrices about
// to be allocated) is charged to stats.PeakBytes and checked against the
// memory budget before anything is allocated; a breach returns a
// *MemoryBudgetError with the index untouched.
func (e *Engine) step(ix *Index, delta []matrix.Bool, rows []bool, stats *Stats) ([]matrix.Bool, error) {
	est := ix.Bytes() + matsBytes(delta) + int64(len(ix.mats))*ix.backend.EmptyBytes(ix.n)
	stats.observePeak(est)
	if err := e.checkBudget(est); err != nil {
		return nil, err
	}
	stats.Iterations++
	next := make([]matrix.Bool, len(ix.mats))
	for a := range next {
		next[a] = ix.backend.NewMatrix(ix.n)
	}
	for _, r := range ix.cnf.Binary {
		stats.Products += 2
		if rows == nil {
			next[r.A].AddMul(delta[r.B], ix.mats[r.C])
			next[r.A].AddMul(ix.mats[r.B], delta[r.C])
		} else {
			next[r.A].AddMulRows(delta[r.B], ix.mats[r.C], rows)
			next[r.A].AddMulRows(ix.mats[r.B], delta[r.C], rows)
		}
	}
	for a := range next {
		next[a].AndNot(ix.mats[a]) // keep only genuinely new bits
		if next[a].Nnz() > 0 {
			ix.mats[a].Or(next[a])
		}
	}
	return next, nil
}

// anySet reports whether any matrix of a working set holds a bit; nil
// slots count as empty.
func anySet(mats []matrix.Bool) bool {
	for _, m := range mats {
		if m != nil && m.Nnz() > 0 {
			return true
		}
	}
	return false
}

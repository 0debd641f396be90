package core

import (
	"context"
	"slices"
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

// or folds src into the accumulated delta. An empty slot takes a copy, not
// src itself: src is a frontier matrix the coming passes clear and refill.
func (d *Delta) or(a int, src matrix.Bool) {
	if d.mats[a] == nil {
		d.mats[a] = src.Clone()
		return
	}
	d.mats[a].Or(src)
}

// UpdateContext incorporates newly added graph edges into an already-closed
// index without recomputing the closure from scratch (dynamic CFPQ). It is
// the engine's one fixpoint loop seeded with just the new edges: the
// initial frontier contains the bits the new edges contribute through
// terminal rules, and each pass propagates only frontier bits through the
// binary rules until nothing new appears.
//
// Frontier matrices are allocated from the index's own backend (recorded at
// Init/ReadIndex time), so an index keeps its representation through
// updates regardless of how this engine was configured.
//
// Edges that reference nodes beyond the index's node range grow the
// matrices first (Index.Grow) — here and nowhere else: the old closure is
// unaffected by isolated new nodes, so grow-then-propagate is exactly the
// closure of the enlarged graph, and no caller resizes, rebuilds or refuses
// on growth. The caller must have added the edges to the graph as well if it
// intends to keep using graph-dependent APIs (AllPathsContext, PathIndex);
// UpdateContext itself needs only the edge list.
//
// UpdateContext returns closure statistics for the incremental run (zero
// iterations means the edges added nothing new) and the update's Delta: the
// union of every newly derived pair — seed bits plus each propagation pass
// — which is exactly what a live-query subscriber must be pushed.
// Cancellation is cooperative, between passes. On cancellation, or when a
// pass would outgrow the engine's memory budget (*MemoryBudgetError), the
// index is sound (every bit justified) but the consequences of the new edges
// may be only partially propagated; the returned Delta then covers precisely
// the bits that did land in the index. When the grown index and the two
// frontier sets do not fit to begin with, the update is rejected before
// anything is allocated: the index is untouched, not even grown. Callers that
// must not serve a partially propagated state run the update on a Fork and
// publish it only on success (what cfpq.Prepared does), or rebuild.
func (e *Engine) UpdateContext(ctx context.Context, ix *Index, edges ...graph.Edge) (stats Stats, _ *Delta, err error) {
	start := time.Now()
	defer func() { stats.Duration = time.Since(start) }()
	maxNode := -1
	for _, edge := range edges {
		maxNode = max(maxNode, edge.From, edge.To)
	}
	n := max(ix.n, maxNode+1)
	if err := e.admit(ix, n, &stats); err != nil {
		return stats, EmptyDelta(ix), err
	}
	ix.Grow(n)
	acc := EmptyDelta(ix)
	f := newFrontier(ix)
	// The update's event chain starts from the pre-update index, so its
	// per-pass deltas telescope to exactly the bits this update added.
	pt := e.newPassTracer(ctx, "update", ix)
	pt.snapshot()
	pt.beginPass()
	for _, edge := range edges {
		for _, a := range ix.cnf.TermRules[edge.Label] {
			if !ix.mats[a].Get(edge.From, edge.To) {
				ix.mats[a].Set(edge.From, edge.To)
				f.set(a, edge.From, edge.To)
			}
		}
	}
	if !f.any() {
		return stats, acc, nil
	}
	// fold adds the frontier's genuinely-new bits to the returned delta.
	fold := func() int {
		for a, m := range f.delta {
			if f.live[a] {
				acc.or(a, m)
			}
		}
		return 0
	}
	pt.endPass(0, fold())
	err = e.closure(ctx, ix, f, pt, &stats, fold)
	return stats, acc, err
}

// frontier is the working state of the fixpoint loop: delta, the bits the
// previous pass (or the seeding) added to the index, and next, the empty
// set the coming pass fills. Both sets are allocated once per evaluation
// and cleared and swapped from pass to pass. live[a] records that delta[a]
// holds a bit; it is kept from what Set and AddMul report, never from an
// Nnz sweep — on the dense backends a popcount of the whole bitmap.
type frontier struct {
	delta, next []matrix.Bool
	live, grown []bool // grown is live's counterpart for next
	// left is productBytes' scratch: T_B at B, Δ_B at |N| + B, set while it
	// marks the coming pass's left operands, all false between passes.
	left []bool
	// whole says the frontier is the whole index — a cold build's first
	// pass, where everything is new — without delta holding a copy of it.
	whole bool
	// meets are a conjunctive evaluation's intersection rules, meet the
	// scratch matrix step computes them in; both nil otherwise.
	meets []Meet
	meet  matrix.Bool
}

// Meet is an intersection rule A → P₁ & … & Pₘ over a CNF's non-terminal
// indices: R_A ⊇ ⋂ R_P. internal/conjunctive lowers a grammar to a CNF plus
// these; they ride on the evaluation, not on the CNF or the Index.
type Meet struct {
	A int
	P []int
}

// admit charges the starting working set of an evaluation over ix at
// dimension n ≥ ix.n — the index, grown to n, plus the loop's two frontier
// sets — to stats.PeakBytes and checks it against the memory budget. It
// estimates from the backend's own figures and allocates nothing, so a
// rejected evaluation has cost no memory: callers run it before they grow
// the index or allocate the frontier.
func (e *Engine) admit(ix *Index, n int, stats *Stats) error {
	empty, grown := ix.backend.EmptyBytes(ix.n), ix.backend.EmptyBytes(n)
	est := ix.Bytes() + int64(len(ix.mats))*(3*grown-empty)
	stats.observePeak(est)
	return e.checkBudget(est)
}

// newFrontier allocates the loop's two matrix sets beside ix, from the
// index's own backend; admit has budgeted them.
func newFrontier(ix *Index) *frontier {
	nn := len(ix.mats)
	f := &frontier{
		delta: make([]matrix.Bool, nn), next: make([]matrix.Bool, nn),
		live: make([]bool, nn), grown: make([]bool, nn), left: make([]bool, 2*nn),
	}
	for a := range f.delta {
		f.delta[a], f.next[a] = ix.backend.NewMatrix(ix.n), ix.backend.NewMatrix(ix.n)
	}
	return f
}

// set seeds bit (i, j) of delta[a].
func (f *frontier) set(a, i, j int) {
	f.delta[a].Set(i, j)
	f.live[a] = true
}

// any reports whether the frontier holds a bit — or is the whole index,
// whose one pass runs whatever it holds, as Algorithm 1's first does.
func (f *frontier) any() bool {
	return f.whole || slices.Contains(f.live, true)
}

// closure is the engine's one fixpoint loop — Algorithm 1's "while T is
// changing", run semi-naively: while the frontier holds a bit, one step.
// Every evaluation reaches it and they differ only in the seed and in each,
// the evaluation's own bookkeeping, run after every pass on the new
// frontier (its result is the active-row count the trace event reports):
//
//	RunContext         the whole initialised index   —
//	  … with meets     the same; step's meet rule    —
//	SinglePathContext  the same                      stamp Δ with lengths
//	UpdateContext      the bits of new edges         fold Δ into the Delta
//	RunFromContext     the rows of an active set     activate Δ's columns
//
// Seeded with T₀ it walks exactly the paper's states T₀, T₁, … pass for
// pass, the last pass being the one that finds nothing new; with no bit
// seeded it runs no pass. Cancellation lands between passes.
func (e *Engine) closure(ctx context.Context, ix *Index, f *frontier, pt *passTracer, stats *Stats, each func() int) error {
	for f.any() {
		if err := ctx.Err(); err != nil {
			return err
		}
		pt.beginPass()
		products, err := e.step(ix, f, stats)
		if err != nil {
			return err
		}
		rows := 0
		if each != nil {
			rows = each()
		}
		pt.endPass(products, rows)
	}
	return nil
}

// step is one semi-naive pass: for each binary rule A → B C it multiplies
// only the frontier Δ — the bits the previous pass (or the seeding) added —
// against the full matrices,
//
//	next_A = (Δ_B × T_C  ∪  T_B × Δ_C) \ T_A
//
// ORs next into the index and makes it the coming pass's frontier. Any new
// entry must involve at least one newly added operand entry, so no product
// the full T × T would find is missed; a product whose Δ operand is empty
// is not run, and not counted, and while Δ is the whole index the two
// products of a rule are one and the same, T_B × T_C. A product computes
// only rows in which its left operand holds a bit (matrix.Bool.AddMul), so
// an evaluation that keeps the rows outside an active set empty — the
// source-restricted closure — never touches them; and the sparse kernel
// finds the rows of T_B × Δ_C through T_B's column index when Δ_C is the
// thinner operand, so a pass costs what Δ holds, not what T_B does. A
// conjunctive evaluation's rules A → P₁ & … & Pₘ (frontier.meets; nil
// otherwise) follow the products, on the same argument: a pair is new to
// ⋂ T_P only if it is new to some T_P, so
//
//	next_A |= ⋃_c (Δ_Pc ∩ ⋂_{d≠c} T_Pd)
//
// — ⋂ T_P, once, while Δ is the whole index — each term computed in the one
// scratch matrix and cleared out of it. The pass's working set
// (index + both frontier sets + the column indexes its products may build)
// is charged to stats.PeakBytes and checked against the memory budget
// before the pass allocates anything; a breach returns a
// *MemoryBudgetError with the index untouched. step returns the number of
// products it ran.
func (e *Engine) step(ix *Index, f *frontier, stats *Stats) (products int, _ error) {
	est := ix.Bytes() + matsBytes(f.delta) + matsBytes(f.next) + f.productBytes(ix)
	stats.observePeak(est)
	if err := e.checkBudget(est); err != nil {
		return 0, err
	}
	stats.Iterations++
	mul := func(a int, x, y matrix.Bool) {
		products++
		if f.next[a].AddMul(x, y) {
			f.grown[a] = true
		}
	}
	for _, r := range ix.cnf.Binary {
		if f.whole {
			mul(r.A, ix.mats[r.B], ix.mats[r.C]) // Δ = T: both products below are this one
			continue
		}
		if f.live[r.B] {
			mul(r.A, f.delta[r.B], ix.mats[r.C])
		}
		if f.live[r.C] {
			mul(r.A, ix.mats[r.B], f.delta[r.C])
		}
	}
	stats.Products += products
	for _, r := range f.meets {
		for c, p := range r.P {
			src := f.delta[p]
			if f.whole {
				src = ix.mats[p]
			} else if !f.live[p] {
				continue
			}
			f.meet.Or(src)
			for d, q := range r.P {
				if d != c {
					f.meet.And(ix.mats[q])
				}
			}
			if f.next[r.A].Or(f.meet) {
				f.grown[r.A] = true
			}
			f.meet.Clear()
			if f.whole {
				break
			}
		}
	}
	for a, m := range f.next {
		if f.grown[a] {
			m.AndNot(ix.mats[a]) // keep only genuinely new bits
			f.grown[a] = ix.mats[a].Or(m)
		}
		if f.live[a] {
			f.delta[a].Clear()
			f.live[a] = false
		}
	}
	f.delta, f.next = f.next, f.delta
	f.live, f.grown, f.whole = f.grown, f.live, false
	return products, nil
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

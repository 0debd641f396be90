package core

import (
	"context"
	"slices"
	"time"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// Delta is the per-nonterminal list of newly derived pairs of one index
// update — exactly the bits it added that the index did not hold — each in
// row-major order. UpdateContext collects it as a coordinate list, like
// GraphBLAS's pending tuples: each pass appends its frontier's bits as
// packed keys, which need no merge (a semi-naive pass never derives a bit
// twice), and one sort on return orders them. A Delta is immutable once
// returned and safe to read concurrently.
type Delta struct {
	cnf   *grammar.CNF
	n     int
	pairs [][]matrix.Pair // indexed like Index.mats; nil = nothing new
}

// EmptyDelta returns the delta of an update that derived nothing, over the
// index's current shape — also what a serving layer reports for an update
// it abandoned before publishing.
func EmptyDelta(ix *Index) *Delta {
	return &Delta{cnf: ix.cnf, n: ix.n, pairs: make([][]matrix.Pair, len(ix.mats))}
}

// Nodes returns the node range the delta's pairs index into.
func (d *Delta) Nodes() int { return d.n }

// Len returns the number of pairs the update derived.
func (d *Delta) Len() (n int) {
	for _, p := range d.pairs {
		n += len(p)
	}
	return n
}

// Empty reports whether the update derived nothing new.
func (d *Delta) Empty() bool {
	return !slices.ContainsFunc(d.pairs, func(p []matrix.Pair) bool { return p != nil })
}

// Pairs returns the newly derived pairs of one non-terminal in row-major
// order; unknown non-terminals and untouched relations return nil. The
// slice is the Delta's own: callers read it and must not write it.
func (d *Delta) Pairs(nt string) []matrix.Pair {
	if a, ok := d.cnf.Index(nt); ok {
		return d.pairs[a]
	}
	return nil
}

// Nonterminals returns the names whose relations gained at least one pair,
// in the grammar's nonterminal order.
func (d *Delta) Nonterminals() []string {
	var out []string
	for a, p := range d.pairs {
		if p != nil {
			out = append(out, d.cnf.Names[a])
		}
	}
	return out
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
// pairs of the seed and of every propagation pass — which is exactly what a
// live-query subscriber must be pushed. A caller that reads no delta, such
// as a warm start replaying its journal, runs ApplyContext instead.
// Cancellation is cooperative, between passes. On cancellation, or when a
// pass would outgrow the engine's memory budget (*MemoryBudgetError), the
// index is sound (every bit justified) but the consequences of the new edges
// may be only partially propagated; the returned Delta then covers precisely
// the bits that did land in the index. When the grown index and the two
// frontier sets do not fit to begin with, the update is rejected before
// anything is allocated: the index is untouched, not even grown. Callers that
// must not serve a partially propagated state run the update on a Fork and
// publish it only on success (what cfpq.Prepared does), or rebuild.
func (e *Engine) UpdateContext(ctx context.Context, ix *Index, edges ...graph.Edge) (Stats, *Delta, error) {
	start := time.Now()
	keys := make([][]uint64, len(ix.mats))
	stats, err := e.update(ctx, ix, edges, keys)
	d := EmptyDelta(ix)
	for a, k := range keys {
		if len(k) > 0 {
			slices.Sort(k)
			d.pairs[a] = make([]matrix.Pair, len(k))
			for i, key := range k {
				d.pairs[a][i] = matrix.Pair{I: int(key >> 32), J: int(uint32(key))}
			}
		}
	}
	stats.Duration = time.Since(start)
	return stats, d, err
}

// ApplyContext is UpdateContext for a caller that reads no Delta: the same
// closure, leaving the same index, with nothing collected per pass.
func (e *Engine) ApplyContext(ctx context.Context, ix *Index, edges ...graph.Edge) (Stats, error) {
	return e.update(ctx, ix, edges, nil)
}

// update runs the closure; with keys non-nil, one slot per non-terminal,
// the seed and every pass append their frontier's bits to it, unsorted.
func (e *Engine) update(ctx context.Context, ix *Index, edges []graph.Edge, keys [][]uint64) (stats Stats, err error) {
	start := time.Now()
	defer func() { stats.Duration = time.Since(start) }()
	maxNode := -1
	for _, edge := range edges {
		maxNode = max(maxNode, edge.From, edge.To)
	}
	n := max(ix.n, maxNode+1)
	if err := e.admit(ix, n, &stats); err != nil {
		return stats, err
	}
	ix.Grow(n)
	f := newFrontier(ix, nil)
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
		return stats, nil
	}
	var collect func() int
	if keys != nil {
		collect = func() int {
			for a, m := range f.delta {
				if f.live[a] {
					keys[a] = matrix.AppendKeys(keys[a], m)
				}
			}
			return 0
		}
		collect()
	}
	pt.endPass(0, 0)
	return stats, e.closure(ctx, ix, f, pt, &stats, collect)
}

// frontier is the working state of the fixpoint loop: delta, the bits the
// previous pass (or the seeding) added to the index, and next, the empty
// set the coming pass fills. A pass writes only the heads of binary rules
// and meets, so only those get both matrices, allocated once per
// evaluation and cleared and swapped from pass to pass — a sparse one
// holds no row list until a pass first writes it, so a head written only
// every other pass pays for one of the two; any other slot is nil
// (empty) until set seeds it. live[a] records that delta[a] holds a
// bit; it is kept from what Set, AddMul and Absorb report, never from an
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
	// be and n are what set allocates a seeded slot's matrix from.
	be matrix.Backend
	n  int
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
// sets, as if every matrix of both were written — to stats.PeakBytes and
// checks it against the memory budget. It
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
// index's own backend, for the heads of the binary rules and meets; admit
// has budgeted them. Each matrix is cleared once up front: a cleared matrix
// writes the rows of its next fill into storage it keeps
// (matrix.Bool.Clear), so from the first pass on the frontier's rows are
// not garbage of their own.
func newFrontier(ix *Index, meets []Meet) *frontier {
	nn := len(ix.mats)
	f := &frontier{
		delta: make([]matrix.Bool, nn), next: make([]matrix.Bool, nn),
		live: make([]bool, nn), grown: make([]bool, nn), left: make([]bool, 2*nn),
		meets: meets, be: ix.backend, n: ix.n,
	}
	head := func(a int) {
		if f.delta[a] == nil {
			f.delta[a], f.next[a] = f.be.NewMatrix(f.n), f.be.NewMatrix(f.n)
			f.delta[a].Clear()
			f.next[a].Clear()
		}
	}
	for _, r := range ix.cnf.Binary {
		head(r.A)
	}
	for _, r := range meets {
		head(r.A)
	}
	if meets != nil {
		f.meet = f.be.NewMatrix(f.n)
	}
	return f
}

// set seeds bit (i, j) of delta[a]. A slot no rule writes has no matrix
// until its first seed, and keeps the one it gets: a pass swaps it into
// next, where no product writes, and set takes it back.
func (f *frontier) set(a, i, j int) {
	if f.delta[a] == nil {
		f.delta[a], f.next[a] = f.next[a], nil
		if f.delta[a] == nil {
			f.delta[a] = f.be.NewMatrix(f.n)
		}
	}
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
//	UpdateContext      the bits of new edges         append Δ's keys to the Delta
//	ApplyContext       the same                      —
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
// in one merge per row at the end (T_A.Absorb(next_A): T_A gains the
// products, next_A keeps what was new to it), and makes next the coming
// pass's frontier. The old Δ is cleared, and its storage holds the pass
// after next's products: nothing outside the frontier keeps a row of it
// — Absorb, the Delta's keys and the meet rule copy what they keep. Any new
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
			f.grown[a] = ix.mats[a].Absorb(m)
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

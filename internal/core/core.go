// Package core implements the paper's contribution: context-free path query
// (CFPQ) evaluation by Boolean matrix multiplication (Azimov & Grigorev,
// "Context-Free Path Querying by Matrix Multiplication").
//
// The matrix T of non-terminal sets from the paper is decomposed into one
// Boolean |V|×|V| matrix per non-terminal (Valiant's decomposition), so the
// closure loop
//
//	while T is changing:  T ← T ∪ (T × T)
//
// becomes, per iteration and binary production A → B C,
//
//	T_A |= T_B × T_C
//
// evaluated semi-naively: a pass multiplies only Δ, the bits the previous
// pass added, against the full matrices (Δ_B × T_C ∪ T_B × Δ_C), which
// finds exactly what the full product would and walks the same states
// T₀, T₁, … (Engine.step). The engine has one such loop (Engine.closure);
// the cold build, the incremental update, the source-restricted closure and
// the paper's two extensions — conjunctive grammars (§7: intersection rules
// beside the products) and single-path semantics (§5: a hook stamping each
// pass's new bits with a witness length) — are that loop under five seeds
// and hooks, tabulated at closure. Algorithm1 keeps the paper's loop
// verbatim, with full products, as the reference; PathIndex.shorten, the
// min-plus relaxation behind ShortestPathContext, derives no pair.
//
// Engine is parameterised by a matrix.Backend, dense or sparse, the
// stand-ins for the paper's dGPU and sCPU implementations.
package core

import (
	"context"
	"slices"
	"time"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// Index is the result of the closure: one Boolean reachability matrix per
// non-terminal. After CloseContext, M_A[i][j] is set iff (i, j) ∈ R_A —
// node j is reachable from node i along a path deriving from A (paper
// Theorem 2).
type Index struct {
	cnf     *grammar.CNF
	n       int
	mats    []matrix.Bool  // indexed by non-terminal index
	backend matrix.Backend // the backend the matrices were allocated from
	// beside is matrix storage an evaluation holds beside the index's
	// own, charged to Bytes until Detach: what a fork does not share with
	// the version it was forked from (both are live while it is updated),
	// or a conjunctive evaluation's scratch matrix.
	beside int64
}

// CNF returns the grammar the index was built for.
func (ix *Index) CNF() *grammar.CNF { return ix.cnf }

// Nodes returns the number of graph nodes.
func (ix *Index) Nodes() int { return ix.n }

// Backend returns the matrix backend the index's matrices were allocated
// from, so incremental updates allocate frontier matrices of the exact same
// representation.
func (ix *Index) Backend() matrix.Backend { return ix.backend }

// Grow resizes every relation matrix in place to n×n (no-op if n ≤ Nodes).
// The closure property is preserved: new nodes are isolated until edges
// touching them are propagated with UpdateContext, so an in-place Grow
// followed by UpdateContext is exactly the closure of the enlarged graph.
func (ix *Index) Grow(n int) {
	if n <= ix.n {
		return
	}
	for _, m := range ix.mats {
		m.Grow(n)
	}
	ix.n = n
}

// Matrix returns the Boolean matrix of the named non-terminal, or nil if
// the non-terminal does not exist in the CNF grammar.
func (ix *Index) Matrix(nt string) matrix.Bool {
	a, ok := ix.cnf.Index(nt)
	if !ok {
		return nil
	}
	return ix.mats[a]
}

// Has reports whether (i, j) ∈ R_nt.
func (ix *Index) Has(nt string, i, j int) bool {
	m := ix.Matrix(nt)
	return m != nil && m.Get(i, j)
}

// Relation returns R_nt as a sorted pair list. Unknown non-terminals yield
// an empty relation.
func (ix *Index) Relation(nt string) []matrix.Pair {
	m := ix.Matrix(nt)
	if m == nil {
		return nil
	}
	return matrix.Pairs(m)
}

// Count returns |R_nt|.
func (ix *Index) Count(nt string) int {
	m := ix.Matrix(nt)
	if m == nil {
		return 0
	}
	return m.Nnz()
}

// Counts returns |R_A| for every non-terminal A, keyed by name.
func (ix *Index) Counts() map[string]int {
	out := make(map[string]int, len(ix.mats))
	for a, m := range ix.mats {
		out[ix.cnf.Names[a]] = m.Nnz()
	}
	return out
}

// Clone returns a deep copy of the index.
func (ix *Index) Clone() *Index {
	cp := &Index{cnf: ix.cnf, n: ix.n, backend: ix.backend, mats: make([]matrix.Bool, len(ix.mats))}
	for i, m := range ix.mats {
		cp.mats[i] = m.Clone()
	}
	return cp
}

// Fork returns the index a writer builds the next version in while readers
// keep answering from ix: every matrix is forked (matrix.Bool.Fork — the
// sparse backends copy a row list when the matrix is first written, the
// dense ones clone), so nothing done to the fork is visible through ix.
// Until Detach, the fork's Bytes — and so the memory budget and
// Stats.PeakBytes of an update run on it — also counts what the two live
// versions may not share: one written empty matrix per non-terminal
// (EmptyBytes: the sparse row list a first write copies; a dense matrix's
// whole bitmap). The rows a fork grows are its own and exactly sized: a
// forked matrix never grows a row in place.
// ix must not be mutated concurrently with Fork itself.
func (ix *Index) Fork() *Index {
	cp := &Index{cnf: ix.cnf, n: ix.n, backend: ix.backend, mats: make([]matrix.Bool, len(ix.mats)),
		beside: int64(len(ix.mats)) * ix.backend.EmptyBytes(ix.n)}
	for i, m := range ix.mats {
		cp.mats[i] = m.Fork()
	}
	return cp
}

// Detach declares the version a fork was taken from released — the fork
// has been published in its place — so Bytes stops charging for it.
func (ix *Index) Detach() { ix.beside = 0 }

// Equal reports whether two indexes (over the same grammar) hold identical
// relations.
func (ix *Index) Equal(other *Index) bool {
	if ix.n != other.n || len(ix.mats) != len(other.mats) {
		return false
	}
	for i, m := range ix.mats {
		if !m.Equal(other.mats[i]) {
			return false
		}
	}
	return true
}

// Stats reports what the closure did.
type Stats struct {
	// Iterations is the number of outer fixpoint passes, including the
	// final pass that made no change; an update or a source-restricted
	// evaluation with nothing to seed runs none.
	Iterations int `json:"iterations"`
	// Products is the number of Boolean matrix multiplications actually
	// run: a product whose frontier operand is empty is skipped and not
	// counted.
	Products int `json:"products"`
	// Duration is the wall time of the evaluation. The context-taking
	// evaluation paths populate it on success and on error; serving
	// layers also stamp it on cached reads, so a warm read reports its
	// real latency rather than a zero-work closure.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// PeakBytes is the largest estimated matrix working set the
	// evaluation held between passes (index matrices, headroom of their
	// rows included, plus the two frontier sets of the semi-naive pass and
	// the column indexes a pass may build) — the same estimate the memory
	// budget is enforced against. It is never below the starting estimate,
	// which charges both frontier sets as written; a sparse frontier
	// matrix no pass has written yet holds no row list and is charged
	// nothing between passes.
	PeakBytes int64 `json:"peak_bytes,omitempty"`
}

// Add accumulates another run's statistics, for callers (such as a serving
// layer) that track total closure work across an initial build and any
// number of incremental updates. Counters and durations sum; PeakBytes
// takes the maximum, the peak of the combined history.
func (s *Stats) Add(o Stats) {
	s.Iterations += o.Iterations
	s.Products += o.Products
	s.Duration += o.Duration
	if o.PeakBytes > s.PeakBytes {
		s.PeakBytes = o.PeakBytes
	}
}

// observePeak raises PeakBytes to the given working-set estimate.
func (s *Stats) observePeak(bytes int64) {
	if bytes > s.PeakBytes {
		s.PeakBytes = bytes
	}
}

// Engine evaluates CFPQs by matrix multiplication.
type Engine struct {
	backend matrix.Backend
	// budget bounds the estimated matrix bytes one evaluation may hold
	// (see WithMemoryBudget); ≤ 0 means unlimited.
	budget int64
	// tracer is the engine-wide per-pass event trace (WithTracer); a
	// context-attached Trace (WithTraceContext) fires alongside it.
	tracer *Trace
}

// Option configures an Engine.
type Option func(*Engine)

// WithBackend selects the matrix backend (default: sparse).
func WithBackend(b matrix.Backend) Option {
	return func(e *Engine) { e.backend = b }
}

// NewEngine returns an engine with the given options.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{backend: matrix.Sparse()}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Backend returns the engine's matrix backend.
func (e *Engine) Backend() matrix.Backend { return e.backend }

// Init builds the initial index: the matrix-initialisation step of
// Algorithm 1 (lines 6–7). For every edge (i, x, j) and production A → x,
// bit (i, j) of T_A is set. Multiple edges between the same nodes
// contribute the union of their head non-terminals. Each T_A is built in
// one piece (matrix.Build) from the edges of every label it heads.
func (e *Engine) Init(g *graph.Graph, cnf *grammar.CNF) *Index {
	n := g.Nodes()
	ix := &Index{cnf: cnf, n: n, backend: e.backend, mats: make([]matrix.Bool, cnf.NonterminalCount())}
	for a := range ix.mats {
		var labelled [][]graph.Edge
		for t, as := range cnf.TermRules {
			if slices.Contains(as, a) {
				labelled = append(labelled, g.EdgesWithLabel(t))
			}
		}
		ix.mats[a] = matrix.Build(e.backend, n, func(emit func(i, j int)) {
			for _, edges := range labelled {
				for _, edge := range edges {
					emit(edge.From, edge.To)
				}
			}
		})
	}
	return ix
}

// CloseContext runs the fixpoint loop of Algorithm 1 (lines 8–9) until no
// matrix changes, mutating ix. Termination is guaranteed because every pass
// only adds bits and the total bit count is bounded by |V|²·|N| (paper
// Theorem 3). Cancellation is cooperative: the context is checked between
// fixpoint passes and ctx.Err() is returned if it fires. The index is then
// left in a sound intermediate state (every bit justified by a derivation)
// but is not a fixpoint.
//
// The loop is the engine's one fixpoint (closure) with the whole index as
// its first frontier, so the states it passes through are exactly the
// paper's T₀, T₁, … (Algorithm1 walks the same ones with full products):
// Stats.Iterations counts Algorithm 1's passes, the last of which finds
// nothing new.
func (e *Engine) CloseContext(ctx context.Context, ix *Index) (Stats, error) {
	return e.closeWhole(ctx, ix, nil, nil)
}

// closeWhole is CloseContext plus what the paper's two extensions add: a
// conjunctive grammar's intersection rules, run by step after the products,
// and the single-path hook, called on T₀ and then on every pass's Δ.
func (e *Engine) closeWhole(ctx context.Context, ix *Index, meets []Meet, each func(*Index, *frontier)) (stats Stats, err error) {
	start := time.Now()
	defer func() { stats.Duration = time.Since(start) }()
	if meets != nil {
		// The rules' scratch matrix, empty between passes, is budgeted
		// and reported as storage held beside the index.
		ix.beside = ix.backend.EmptyBytes(ix.n)
		defer ix.Detach()
	}
	if err := e.admit(ix, ix.n, &stats); err != nil {
		return stats, err
	}
	f := newFrontier(ix, meets)
	f.whole = true
	pt := e.newPassTracer(ctx, "full", ix)
	pt.beginPass()
	var hook func() int
	if each != nil {
		hook = func() int { each(ix, f); return 0 }
		hook()
	}
	pt.endPass(0, 0) // the entry state is the seeding: ix is freshly initialised
	err = e.closure(ctx, ix, f, pt, &stats, hook)
	return stats, err
}

// RunContext evaluates the query end to end — Init then CloseContext — with
// cooperative cancellation between closure passes and, when the engine
// carries a memory budget, a pre-allocation check: an instance whose empty
// index and two empty frontier sets alone breach the budget is rejected
// before any matrix is allocated. meets are the intersection rules of a
// conjunctive grammar lowered to cnf (internal/conjunctive): same loop,
// budget, trace and backend, with step's one extra rule.
func (e *Engine) RunContext(ctx context.Context, g *graph.Graph, cnf *grammar.CNF, meets ...Meet) (*Index, Stats, error) {
	return e.run(ctx, g, cnf, meets, nil)
}

func (e *Engine) run(ctx context.Context, g *graph.Graph, cnf *grammar.CNF, meets []Meet, each func(*Index, *frontier)) (*Index, Stats, error) {
	if err := e.checkBudget(3 * int64(cnf.NonterminalCount()) * e.backend.EmptyBytes(g.Nodes())); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	ix := e.Init(g, cnf)
	stats, err := e.closeWhole(ctx, ix, meets, each)
	stats.Duration = time.Since(start) // fold the Init time in
	if err != nil {
		return nil, stats, err
	}
	return ix, stats, nil
}

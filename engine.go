package cfpq

import (
	"context"
	"fmt"
	"io"

	"cfpq/internal/core"
)

// Engine is the one query surface of this library: a closure engine bound
// to a matrix Backend. Its evaluation entry point is Do, which plans a
// declarative Request (full closure, source frontier, target frontier) —
// the named query methods (Query, QueryFrom, QueryTo, RPQ,
// QueryConjunctive, QueryBatch) are sugar over it, alongside the
// index-level APIs: full closures, single-/shortest-/all-path semantics,
// incremental updates and index (de)serialisation. Construct it once and
// share it: an Engine is immutable and safe for concurrent use; all
// per-call state lives in the arguments and results.
//
// Every query method takes a context.Context that is checked between
// closure passes, so long evaluations on large graphs can be cancelled or
// given deadlines; a cancelled call returns ctx.Err().
//
// For repeated queries against one (graph, grammar) pair, Prepare a
// Prepared handle instead of re-running the closure per call.
type Engine struct {
	backend Backend
	// engineOpts are engine-level evaluation options (such as
	// WithMemoryBudget) applied to every closure this engine runs —
	// including Prepare/PrepareCNF index builds — before any per-call
	// options.
	engineOpts []core.Option
}

// NewEngine returns an engine evaluating with the given backend. The zero
// Backend value selects sparse. Options passed here apply to every
// evaluation the engine runs (the typical use is WithMemoryBudget, which
// must also govern Prepare's index build); per-call options are applied on
// top of them.
func NewEngine(b Backend, opts ...Option) *Engine {
	return &Engine{backend: b, engineOpts: buildConfig(opts).engineOpts}
}

// Backend returns the engine's backend.
func (e *Engine) Backend() Backend { return e.backend }

// newCore layers per-call options over the engine's backend and options
// and builds the internal closure engine. This is deliberately the only place
// in the library that constructs core.NewEngine: every evaluation path —
// library, server, CLI, bench — funnels through it.
func (e *Engine) newCore(cfg *config) *core.Engine {
	opts := make([]core.Option, 0, 1+len(e.engineOpts)+len(cfg.engineOpts))
	opts = append(opts, core.WithBackend(e.backend.mat()))
	opts = append(opts, e.engineOpts...)
	opts = append(opts, cfg.engineOpts...)
	return core.NewEngine(opts...)
}

// Query evaluates R_start on the graph under the relational semantics and
// returns the sorted pair list. It is sugar for an unrestricted
// OutputPairs Request evaluated by Do.
func (e *Engine) Query(ctx context.Context, g *Graph, gram *Grammar, start string, opts ...Option) ([]Pair, error) {
	res, err := e.Do(ctx, Request{Graph: g, Grammar: gram, Nonterminal: start, Options: opts})
	if err != nil {
		return nil, err
	}
	return res.AllPairs(), nil
}

// QueryFrom evaluates R_start restricted to the given source nodes: the
// result is exactly Query's pair list filtered to pairs (i, j) with i ∈
// sources. Instead of paying for the full n×n closure, the evaluation
// maintains only the matrix rows of the reachable frontier — the sources
// plus every node heading a derivation fragment they reach — however large
// that frontier grows; when it reaches every node the work is the full
// closure's (Explain.Saturated). This is the right call shape for the
// dominant serving workload, "what can these nodes reach via S?".
//
// An empty source set yields an empty result. Sources outside the graph's
// node range are an error; duplicates are deduplicated. It is sugar for a
// source-restricted Request evaluated by Do.
func (e *Engine) QueryFrom(ctx context.Context, g *Graph, gram *Grammar, start string, sources []int, opts ...Option) ([]Pair, error) {
	if sources == nil {
		sources = []int{} // a Request distinguishes nil (unrestricted) from empty
	}
	res, err := e.Do(ctx, Request{Graph: g, Grammar: gram, Nonterminal: start, Sources: sources, Options: opts})
	if err != nil {
		return nil, err
	}
	return res.AllPairs(), nil
}

// QueryTo evaluates R_start restricted to the given target nodes: the
// result is exactly Query's pair list filtered to pairs (i, j) with j ∈
// targets, evaluated by the target-frontier strategy (the source frontier
// of the reversed graph under the reversed grammar) — the call shape of
// "what reaches these nodes via S?". It is sugar for a target-restricted
// Request evaluated by Do.
func (e *Engine) QueryTo(ctx context.Context, g *Graph, gram *Grammar, start string, targets []int, opts ...Option) ([]Pair, error) {
	if targets == nil {
		targets = []int{}
	}
	res, err := e.Do(ctx, Request{Graph: g, Grammar: gram, Nonterminal: start, Targets: targets, Options: opts})
	if err != nil {
		return nil, err
	}
	return res.AllPairs(), nil
}

// Evaluate runs the matrix closure and returns the full Index, from which
// the relation of every non-terminal can be read (Relation, Has, Count).
// Use this instead of Query when several non-terminals are of interest.
func (e *Engine) Evaluate(ctx context.Context, g *Graph, cnf *CNF, opts ...Option) (*Index, Stats, error) {
	return e.newCore(buildConfig(opts)).RunContext(ctx, g, cnf)
}

// SinglePath evaluates the single-path query semantics: the returned
// PathIndex reports, for every pair of every relation, a witness-path
// length (Length) and a concrete path of exactly that length (Path). It is
// the engine's closure (its backend, memory budget and tracer apply); a
// length is fixed in the pass that derives the pair, the same on every run.
func (e *Engine) SinglePath(ctx context.Context, g *Graph, cnf *CNF) (*PathIndex, error) {
	px, _, err := e.newCore(&config{}).SinglePathContext(ctx, g, cnf)
	return px, err
}

// ShortestPath is SinglePath with minimal witness lengths: the recorded
// length (and the extracted path) of every pair is the shortest possible,
// as in Hellings' single-path algorithm — SinglePath's index, then a
// min-plus relaxation of its lengths.
func (e *Engine) ShortestPath(ctx context.Context, g *Graph, cnf *CNF) (*PathIndex, error) {
	px, _, err := e.newCore(&config{}).ShortestPathContext(ctx, g, cnf)
	return px, err
}

// AllPaths enumerates distinct paths witnessing (start, i, j) in
// nondecreasing length order, bounded by opts. The context is checked
// between length levels.
func (e *Engine) AllPaths(ctx context.Context, g *Graph, ix *Index, start string, i, j int, opts AllPathsOptions) ([][]Edge, error) {
	if _, ok := ix.CNF().Index(start); !ok {
		return nil, fmt.Errorf("cfpq: unknown non-terminal %q", start)
	}
	return ix.AllPathsContext(ctx, g, start, i, j, opts)
}

// RPQ evaluates a regular path query — the expression syntax is
//
//	subClassOf_r* type (a | b)+ c?
//
// — by compiling the expression to an NFA, the NFA to a right-linear
// grammar, and evaluating that grammar with this engine. It is sugar for
// an Expr Request evaluated by Do.
func (e *Engine) RPQ(ctx context.Context, g *Graph, expr string, opts ...Option) ([]Pair, error) {
	res, err := e.Do(ctx, Request{Graph: g, Expr: expr, Options: opts})
	if err != nil {
		return nil, err
	}
	return res.AllPairs(), nil
}

// QueryConjunctive evaluates a conjunctive path query. Per the paper's
// Section 7 hypothesis (verified by this package's tests), the result is
// an upper approximation of the single-path relation on cyclic graphs and
// exact on linear inputs. It is sugar for a Conjunctive Request evaluated
// by Do: the engine's closure with the grammar's intersection rules, under
// this engine's backend, memory budget and tracer.
func (e *Engine) QueryConjunctive(ctx context.Context, g *Graph, cg *ConjunctiveGrammar, start string, opts ...Option) ([]Pair, error) {
	res, err := e.Do(ctx, Request{Graph: g, Conjunctive: cg, Nonterminal: start, Options: opts})
	if err != nil {
		return nil, err
	}
	return res.AllPairs(), nil
}

// Update incorporates newly added edges into an evaluated Index without
// recomputing the closure (dynamic CFPQ): only the consequences of the new
// edges are propagated. Frontier matrices come from the index's own
// backend, whatever backend this engine was built with. Edges that grow
// the node set transparently resize the index in place first.
func (e *Engine) Update(ctx context.Context, ix *Index, edges ...Edge) (Stats, error) {
	st, _, err := e.newCore(&config{}).UpdateContext(ctx, ix, edges...)
	return st, err
}

// LoadIndex reads an index previously written by SaveIndex, materialised
// with this engine's backend. The CNF must be the grammar the index was
// computed for.
func (e *Engine) LoadIndex(r io.Reader, cnf *CNF) (*Index, error) {
	return core.ReadIndex(r, cnf, e.backend.mat())
}

// Prepare compiles the grammar and binds it to the graph: the closure is
// evaluated once and cached in the returned Prepared handle, which answers
// any number of concurrent queries and absorbs edge updates incrementally.
// Prepare takes ownership of g — mutate it only through Prepared.AddEdges.
func (e *Engine) Prepare(ctx context.Context, g *Graph, gram *Grammar) (*Prepared, error) {
	cnf, err := ToCNF(gram)
	if err != nil {
		return nil, err
	}
	return e.PrepareCNF(ctx, g, cnf)
}

// PrepareCNF is Prepare for a grammar already in Chomsky Normal Form,
// skipping the conversion (useful when many graphs share one grammar).
func (e *Engine) PrepareCNF(ctx context.Context, g *Graph, cnf *CNF) (*Prepared, error) {
	ix, build, err := e.newCore(&config{}).RunContext(ctx, g, cnf)
	if err != nil {
		return nil, err
	}
	return &Prepared{eng: e, cnf: cnf, cur: &version{g: g, ix: ix}, build: build}, nil
}

// PrepareFromIndex binds an already-evaluated index to its graph without
// re-running the closure — the warm-start path: load a persisted index
// (LoadIndex), patch it up to date with Update if edges were journaled
// after it was saved, and serve. The index must be the closure of g under
// cnf (or of a sub-multiset of g's edges whose missing consequences have
// been patched in with Update); binding an index computed for a different
// graph silently serves wrong answers, exactly like pairing LoadIndex
// with the wrong grammar would.
//
// The handle takes ownership of g. An index smaller than g's node range
// is grown in place; a cnf mismatch is an error. The returned handle's
// Build stats are zero — no closure ran — which is how serving layers
// distinguish warm starts from cold ones.
func (e *Engine) PrepareFromIndex(g *Graph, cnf *CNF, ix *Index) (*Prepared, error) {
	if ix == nil {
		return nil, fmt.Errorf("cfpq: PrepareFromIndex with nil index")
	}
	if ix.CNF() != cnf {
		// The index's relations are keyed by the CNF it was read/built
		// with; a different CNF value, even if textually equal, would
		// desynchronise non-terminal indexes.
		return nil, fmt.Errorf("cfpq: index was built for a different CNF value")
	}
	if g.Nodes() > ix.Nodes() {
		ix.Grow(g.Nodes())
	}
	return &Prepared{eng: e, cnf: cnf, cur: &version{g: g, ix: ix}}, nil
}

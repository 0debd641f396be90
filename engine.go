package cfpq

import (
	"context"
	"fmt"
	"io"

	"cfpq/internal/core"
)

// Engine is the one query surface of this library: a closure engine bound
// to a matrix Backend. Its evaluation entry point is Do, which plans a
// declarative Request (full closure, source frontier, target frontier),
// alongside the index-level APIs: full closures, single-/shortest-/all-path
// semantics, incremental updates and index (de)serialisation. Construct it
// once and share it: an Engine is immutable and safe for concurrent use;
// all per-call state lives in the arguments and results.
//
// Every evaluating method takes a context.Context that is checked between
// closure passes, so long evaluations on large graphs can be cancelled or
// given deadlines; a cancelled call returns ctx.Err().
//
// For repeated queries against one (graph, grammar) pair, Prepare a
// Prepared handle instead of re-running the closure per call.
type Engine struct {
	backend Backend
	// coreOpts are the options (such as WithMemoryBudget) applied to every
	// closure this engine runs, Prepare/PrepareCNF index builds included.
	coreOpts []core.Option
}

// NewEngine returns an engine evaluating with the given backend. The zero
// Backend value selects sparse. The options apply to every evaluation the
// engine runs (the typical use is WithMemoryBudget, which must also govern
// Prepare's index build); a call that needs different ones runs on a second
// Engine.
func NewEngine(b Backend, opts ...Option) *Engine {
	e := &Engine{backend: b}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Backend returns the engine's backend.
func (e *Engine) Backend() Backend { return e.backend }

// newCore builds the internal closure engine from the engine's backend and
// options. This is deliberately the only place in the library that
// constructs core.NewEngine: every evaluation path — library, server, CLI,
// bench — funnels through it.
func (e *Engine) newCore() *core.Engine {
	opts := make([]core.Option, 0, 1+len(e.coreOpts))
	opts = append(opts, core.WithBackend(e.backend.mat()))
	opts = append(opts, e.coreOpts...)
	return core.NewEngine(opts...)
}

// Evaluate runs the matrix closure and returns the full Index, from which
// the relation of every non-terminal can be read (Relation, Has, Count).
// Use this instead of Do when several non-terminals are of interest.
func (e *Engine) Evaluate(ctx context.Context, g *Graph, cnf *CNF) (*Index, Stats, error) {
	return e.newCore().RunContext(ctx, g, cnf)
}

// SinglePath evaluates the single-path query semantics: the returned
// PathIndex reports, for every pair of every relation, a witness-path
// length (Length) and a concrete path of exactly that length (Path). It is
// the engine's closure (its backend, memory budget and tracer apply); a
// length is fixed in the pass that derives the pair, the same on every run.
func (e *Engine) SinglePath(ctx context.Context, g *Graph, cnf *CNF) (*PathIndex, error) {
	px, _, err := e.newCore().SinglePathContext(ctx, g, cnf)
	return px, err
}

// ShortestPath is SinglePath with minimal witness lengths: the recorded
// length (and the extracted path) of every pair is the shortest possible,
// as in Hellings' single-path algorithm — SinglePath's index, then a
// min-plus relaxation of its lengths.
func (e *Engine) ShortestPath(ctx context.Context, g *Graph, cnf *CNF) (*PathIndex, error) {
	px, _, err := e.newCore().ShortestPathContext(ctx, g, cnf)
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

// Update incorporates newly added edges into an evaluated Index without
// recomputing the closure (dynamic CFPQ): only the consequences of the new
// edges are propagated. Frontier matrices come from the index's own
// backend, whatever backend this engine was built with. Edges that grow
// the node set transparently resize the index in place first. It collects
// no Delta (Prepared.AddEdges does): a warm start replays its WAL this way.
func (e *Engine) Update(ctx context.Context, ix *Index, edges ...Edge) (Stats, error) {
	return e.newCore().ApplyContext(ctx, ix, edges...)
}

// LoadIndex reads an index previously written by SaveIndex, materialised
// with this engine's backend. The CNF must be the grammar the index was
// computed for. An index in a retired format (CFPQIDX3, CFPQIDX2) is
// refused with an error that names it: rebuild it and save it again.
func (e *Engine) LoadIndex(r io.Reader, cnf *CNF) (*Index, error) {
	return core.ReadIndex(r, cnf, e.backend.mat())
}

// Prepare compiles the grammar and binds it to the graph: the closure is
// evaluated once and cached in the returned Prepared handle, which answers
// any number of concurrent queries and absorbs edge updates incrementally.
// The handle never writes g: its first AddEdges that adds an edge copies
// the graph, and later ones extend that copy. The caller still must not
// mutate g while the handle reads it; a Fork of g, extended beside the
// handle, is fine.
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
	ix, build, err := e.newCore().RunContext(ctx, g, cnf)
	if err != nil {
		return nil, err
	}
	return newPrepared(e, cnf, g, ix, build), nil
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
// The handle never writes g, as with Prepare; the caller must not mutate
// it while the handle reads it. An index smaller than g's node range is
// grown in place; a cnf mismatch is an error. The returned handle's
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
	return newPrepared(e, cnf, g, ix, Stats{}), nil
}

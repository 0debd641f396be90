package cfpq

import (
	"context"
	"fmt"

	"cfpq/internal/conjunctive"
	"cfpq/internal/core"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
	"cfpq/internal/rpq"
)

// Do evaluates a declarative Request against its Graph: the planner picks
// the cheapest strategy for the request's restriction — the full all-pairs
// closure when unrestricted, the source-frontier closure for a source
// restriction, the target-frontier closure (the source frontier of the
// reversed graph under the reversed grammar) for a target restriction, and
// for a pair restriction the frontier of whichever side names fewer nodes
// — then shapes the answer to the requested Output. Result.Explain records
// the choice; Result.Stats the closure work performed. Every strategy
// ends in one relation matrix, which the answer walks as Prepared.Do walks
// its pinned version's: a pairs Result holds that matrix, not the index.
//
// Do is the one evaluation entry point of the engine. For repeated
// requests against one (graph, grammar) pair, Prepare a handle and use
// Prepared.Do, which answers from the cached index instead.
//
// Restriction nodes outside [0, Graph.Nodes()) are an error — evaluating
// from scratch, a node the graph does not have is a caller mistake, not an
// empty answer. (Prepared.Do, reading a cached index whose graph may grow
// under it, ignores them.)
func (e *Engine) Do(ctx context.Context, req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Graph == nil {
		return nil, reqErr("graph", "Engine.Do evaluates a Request against its Graph; Prepared.Do uses the bound one")
	}
	n := req.Graph.Nodes()
	for _, s := range req.Sources {
		if s >= n {
			return nil, reqErr("sources", "node %d out of range [0,%d)", s, n)
		}
	}
	for _, t := range req.Targets {
		if t >= n {
			return nil, reqErr("targets", "node %d out of range [0,%d)", t, n)
		}
	}

	// Request.Trace: collect the evaluation's per-pass events through a
	// context-attached trace and hand them back on Result.Explain.Passes.
	var passes []PassEvent
	finish := func(res *Result, err error) (*Result, error) {
		if res != nil {
			res.Explain.Passes = passes
		}
		return res, err
	}
	if req.Trace {
		ctx = core.WithTraceContext(ctx, &core.Trace{Pass: func(ev core.PassEvent) {
			// Events' slices are only valid during the hook; copy.
			ev.NNZ = append([]core.NNZ(nil), ev.NNZ...)
			passes = append(passes, ev)
		}})
	}

	if req.Conjunctive != nil {
		return finish(e.doConjunctive(ctx, req))
	}

	gram, start := req.Grammar, req.Nonterminal
	rpqPrefix := ""
	if req.Expr != "" {
		r, err := rpq.ParseRegex(req.Expr)
		if err != nil {
			return nil, err
		}
		gram, start, _ = rpq.Grammar(r)
		rpqPrefix = "RPQ compiled to a right-linear grammar; "
	}
	if gram == nil {
		return nil, reqErr("grammar", "a nonterminal request needs a Grammar (or a Prepared handle)")
	}
	if !gram.HasNonterminal(start) {
		return nil, fmt.Errorf("cfpq: unknown non-terminal %q", start)
	}

	if req.normOutput() == OutputPaths {
		return finish(e.doPaths(ctx, req, gram, start))
	}

	w, ex, stats, err := e.planRelational(ctx, req, gram, start)
	if err != nil {
		return nil, err
	}
	ex.Reason = rpqPrefix + ex.Reason
	res := &Result{Stats: stats, Explain: ex}
	w.answer(res, req)
	return finish(res, nil)
}

// planRelational runs the strategy selection for exists/count/pairs
// outputs and returns the walk of the relation matrix the strategy ends
// in, restricted to the request's sources and targets.
func (e *Engine) planRelational(ctx context.Context, req Request, gram *Grammar, start string) (walk, Explain, Stats, error) {
	g, sources, targets := req.Graph, req.Sources, req.Targets
	// A restricted request plans a frontier, seeded with the side that
	// names fewer nodes: the targets seed the source frontier of the
	// reversed graph under the reversed grammar (CFPQ duality).
	byTargets := targets != nil && (sources == nil || len(targets) < len(sources))
	seeds := sources
	if byTargets {
		g, gram, seeds = graph.Reverse(g), grammar.Reverse(gram), targets
	}
	cnf, err := ToCNF(gram)
	if err != nil {
		return walk{}, Explain{}, Stats{}, err
	}
	if seeds == nil {
		ix, stats, err := e.newCore().RunContext(ctx, g, cnf)
		if err != nil {
			return walk{}, Explain{}, stats, err
		}
		return restrict(answerMatrix(ix, start, req.EmptyPaths, nil), req), Explain{
			Strategy: StrategyFull,
			Reason:   "no restriction: every pair is wanted, so the full all-pairs closure is the only plan",
		}, stats, nil
	}
	ix, fs, err := e.newCore().RunFromContext(ctx, g, cnf, seeds)
	if err != nil {
		return walk{}, Explain{}, fs.Stats, err
	}
	m := answerMatrix(ix, start, req.EmptyPaths, seeds)
	ex := Explain{Strategy: StrategySourceFrontier, Frontier: fs.Frontier, Saturated: fs.Saturated}
	var w walk
	if !byTargets {
		// Rows outside the sources are the frontier's, not the answer's.
		w = restrict(m, req)
		ex.Reason = fmt.Sprintf("%d source(s) restrict the rows, so the source-frontier closure pays only for reachable rows", len(sources))
		if targets != nil {
			ex.Reason = fmt.Sprintf("both sides restricted; the %d source(s) are the smaller frontier seed, targets filter the result", len(sources))
		}
	} else {
		// The reversed relation's target rows are the answer's columns:
		// transpose just those rows into the answer's matrix.
		n := m.Dim()
		w = walk{m: matrix.Build(ix.Backend(), n, func(emit func(i, j int)) {
			for _, t := range targets {
				m.RangeRow(t, func(i int) bool { emit(i, t); return true })
			}
		}), rows: nodeSet(sources, n)}
		ex.Strategy = StrategyTargetFrontier
		ex.Reason = fmt.Sprintf("%d target(s) restrict the columns, so the source-frontier closure runs on the reversed graph and grammar (CFPQ duality)", len(targets))
		if sources != nil {
			ex.Reason = fmt.Sprintf("both sides restricted; the %d target(s) are the smaller frontier seed on the reversed instance, sources filter the result", len(targets))
		}
	}
	if fs.Saturated {
		ex.Reason += "; the frontier reached every row, so this was the full closure"
	}
	return w, ex, fs.Stats, nil
}

// answerMatrix is R_start of the call's own index ix — an empty matrix
// when the CNF has no such non-terminal (one deriving only ε) — with (v, v)
// set for each v in nodes (every node when nodes is nil) when emptyPaths is
// asked and start derives ε: the paper's CNF drops ε-rules, and only empty
// paths are labelled ε. The walk's restrictions then keep just the v in
// both of them.
func answerMatrix(ix *Index, start string, emptyPaths bool, nodes []int) matrix.Bool {
	m := ix.Matrix(start)
	if m == nil {
		m = ix.Backend().NewMatrix(ix.Nodes())
	}
	if emptyPaths && ix.CNF().Nullable[start] {
		if nodes == nil {
			for v := range ix.Nodes() {
				m.Set(v, v)
			}
		}
		for _, v := range nodes {
			m.Set(v, v)
		}
	}
	return m
}

// doPaths answers an OutputPaths request: witness enumeration reads the
// full closure index, so the plan is always the full closure.
func (e *Engine) doPaths(ctx context.Context, req Request, gram *Grammar, start string) (*Result, error) {
	cnf, err := ToCNF(gram)
	if err != nil {
		return nil, err
	}
	ix, stats, err := e.newCore().RunContext(ctx, req.Graph, cnf)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Stats: stats,
		Explain: Explain{
			Strategy: StrategyFull,
			Reason:   "path enumeration reads the full closure index as its derivation oracle",
		},
	}
	return res.readPaths(ctx, ix, req.Graph, start, req)
}

// doConjunctive answers a conjunctive-grammar request: the request's engine
// (backend, budget, tracer) runs the one closure with the grammar's
// intersection rules; there is no restricted variant, so the plan is always
// the full closure with post-hoc filtering.
func (e *Engine) doConjunctive(ctx context.Context, req Request) (*Result, error) {
	ix, stats, err := conjunctive.EvaluateContext(ctx, e.newCore(), req.Graph, req.Conjunctive)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: stats, Explain: Explain{
		Strategy: StrategyFull,
		Reason:   "conjunctive grammars evaluate only under the full closure; restrictions filter the result",
	}}
	// A conjunctive CNF derives no ε, so no empty paths are added.
	restrict(answerMatrix(ix, req.Nonterminal, false, nil), req).answer(res, req)
	return res, nil
}

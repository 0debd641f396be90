package cfpq

import (
	"context"
	"fmt"
	"sort"

	"cfpq/internal/conjunctive"
	"cfpq/internal/core"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/rpq"
)

// Do evaluates a declarative Request against its Graph: the planner picks
// the cheapest strategy for the request's restriction — the full all-pairs
// closure when unrestricted, the source-frontier closure for a source
// restriction, the target-frontier closure (the source frontier of the
// reversed graph under the reversed grammar) for a target restriction, and
// for a pair restriction the frontier of whichever side names fewer nodes
// — then shapes the answer to the requested Output. Result.Explain records
// the choice; Result.Stats the closure work performed.
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

	if req.normOutput() == OutputPaths {
		return finish(e.doPaths(ctx, req, gram, start))
	}

	pairs, ex, stats, err := e.planRelational(ctx, req, gram, start)
	if err != nil {
		return nil, err
	}
	ex.Reason = rpqPrefix + ex.Reason
	return finish(shapePairs(req, pairs, ex, stats), nil)
}

// planRelational runs the strategy selection for exists/count/pairs
// outputs and returns the restricted pair relation, sorted row-major.
func (e *Engine) planRelational(ctx context.Context, req Request, gram *Grammar, start string) ([]Pair, Explain, Stats, error) {
	g, sources, targets := req.Graph, req.Sources, req.Targets
	qopts := core.QueryOptions{IncludeEmptyPaths: req.EmptyPaths}
	switch {
	case sources == nil && targets == nil:
		pairs, stats, err := e.newCore().QueryContext(ctx, g, gram, start, qopts)
		return pairs, Explain{
			Strategy: StrategyFull,
			Reason:   "no restriction: every pair is wanted, so the full all-pairs closure is the only plan",
		}, stats, err

	case targets == nil, sources != nil && len(sources) <= len(targets):
		pairs, fs, err := e.newCore().QueryFromContext(ctx, g, gram, start, sources, qopts)
		if err != nil {
			return nil, Explain{}, fs.Stats, err
		}
		reason := fmt.Sprintf("%d source(s) restrict the rows, so the source-frontier closure pays only for reachable rows", len(sources))
		if targets != nil {
			pairs = filterPairs(pairs, nil, targets)
			reason = fmt.Sprintf("both sides restricted; the %d source(s) are the smaller frontier seed, targets filter the result", len(sources))
		}
		if fs.Saturated {
			reason += "; the frontier reached every row, so this was the full closure"
		}
		return pairs, Explain{
			Strategy:  StrategySourceFrontier,
			Reason:    reason,
			Frontier:  fs.Frontier,
			Saturated: fs.Saturated,
		}, fs.Stats, nil

	default: // targets restrict; sources are nil or the larger side
		pairs, fs, err := e.newCore().QueryFromContext(ctx, graph.Reverse(g), grammar.Reverse(gram), start, targets, qopts)
		if err != nil {
			return nil, Explain{}, fs.Stats, err
		}
		for i := range pairs {
			pairs[i].I, pairs[i].J = pairs[i].J, pairs[i].I
		}
		sort.Slice(pairs, func(a, b int) bool {
			if pairs[a].I != pairs[b].I {
				return pairs[a].I < pairs[b].I
			}
			return pairs[a].J < pairs[b].J
		})
		reason := fmt.Sprintf("%d target(s) restrict the columns, so the source-frontier closure runs on the reversed graph and grammar (CFPQ duality)", len(targets))
		if sources != nil {
			pairs = filterPairs(pairs, sources, nil)
			reason = fmt.Sprintf("both sides restricted; the %d target(s) are the smaller frontier seed on the reversed instance, sources filter the result", len(targets))
		}
		if fs.Saturated {
			reason += "; the frontier reached every row, so this was the full closure"
		}
		return pairs, Explain{
			Strategy:  StrategyTargetFrontier,
			Reason:    reason,
			Frontier:  fs.Frontier,
			Saturated: fs.Saturated,
		}, fs.Stats, nil
	}
}

// doPaths answers an OutputPaths request: witness enumeration reads the
// full closure index, so the plan is always the full closure.
func (e *Engine) doPaths(ctx context.Context, req Request, gram *Grammar, start string) (*Result, error) {
	if !gram.HasNonterminal(start) {
		return nil, fmt.Errorf("core: unknown non-terminal %q", start)
	}
	cnf, err := ToCNF(gram)
	if err != nil {
		return nil, err
	}
	ix, stats, err := e.newCore().RunContext(ctx, req.Graph, cnf)
	if err != nil {
		return nil, err
	}
	// Look one path past the limit so a clipped enumeration reports
	// Truncated instead of passing for a complete answer.
	opts := AllPathsOptions{MaxLength: req.MaxPathLength, MaxPaths: req.Limit}
	if req.Limit > 0 {
		opts.MaxPaths++
	}
	paths, err := ix.AllPathsContext(ctx, req.Graph, start, req.Sources[0], req.Targets[0], opts)
	if err != nil {
		return nil, err
	}
	truncated := false
	if req.Limit > 0 && len(paths) > req.Limit {
		paths = paths[:req.Limit]
		truncated = true
	}
	return &Result{
		Count:     len(paths),
		Truncated: truncated,
		Stats:     stats,
		Explain: Explain{
			Strategy: StrategyFull,
			Reason:   "path enumeration reads the full closure index as its derivation oracle",
		},
		paths: paths,
	}, nil
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
	pairs := filterPairs(ix.Relation(req.Nonterminal), req.Sources, req.Targets)
	ex := Explain{
		Strategy: StrategyFull,
		Reason:   "conjunctive grammars evaluate only under the full closure; restrictions filter the result",
	}
	return shapePairs(req, pairs, ex, stats), nil
}

// filterPairs keeps the pairs whose endpoints satisfy the (optional)
// restrictions; a nil side is unrestricted. Order is preserved.
func filterPairs(pairs []Pair, sources, targets []int) []Pair {
	if sources == nil && targets == nil {
		return pairs
	}
	inSrc := memberSet(sources)
	inTgt := memberSet(targets)
	out := pairs[:0:0]
	for _, p := range pairs {
		if (inSrc == nil || inSrc[p.I]) && (inTgt == nil || inTgt[p.J]) {
			out = append(out, p)
		}
	}
	return out
}

// memberSet builds a membership set; nil input stays nil (unrestricted).
func memberSet(nodes []int) map[int]bool {
	if nodes == nil {
		return nil
	}
	set := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		set[v] = true
	}
	return set
}

// shapePairs turns a computed pair relation into the requested output.
func shapePairs(req Request, pairs []Pair, ex Explain, stats Stats) *Result {
	res := &Result{Stats: stats, Explain: ex}
	switch req.normOutput() {
	case OutputExists:
		res.Exists = len(pairs) > 0
	case OutputCount:
		res.Count = len(pairs)
	default: // OutputPairs
		if req.Limit > 0 && len(pairs) > req.Limit {
			pairs = pairs[:req.Limit]
			res.Truncated = true
		}
		res.Count = len(pairs)
		res.pairs = pairs
	}
	return res
}

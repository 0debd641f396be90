// This file is the service's declarative query path: QueryRequest is the
// JSON wire form of a cfpq.Request (node names in place of ids, registry
// names in place of bound values), Service.Do resolves it to a cached index
// slot — a registry grammar's, or an RPQ expression's right-linear lowering
// — and answers it with Prepared.Do, the cached-read strategy. Do is the
// service's one single-query entry point (the batch route shares the cached
// index), so no request plans a closure of its own: the only closure a
// query can run is its slot's first build.

package server

import (
	"context"
	"errors"

	"cfpq"
	"cfpq/internal/graph"
)

// QueryRequest is the wire form of one declarative query — the body of
// POST /v1/query. Graph (and, for grammar queries, Grammar) name registry
// entries; Sources/Targets are node names or decimal ids; the remaining
// fields mirror cfpq.Request.
type QueryRequest struct {
	Graph   string `json:"graph"`
	Grammar string `json:"grammar,omitempty"`
	Backend string `json:"backend,omitempty"`

	// Nonterminal queries R_Nonterminal of the named grammar; Expr is an
	// RPQ expression (no grammar): it is lowered to a right-linear grammar
	// and answered from a cached index slot of its canonical form, built on
	// first use and patched on every write like a grammar's.
	Nonterminal string `json:"nonterminal,omitempty"`
	Expr        string `json:"expr,omitempty"`

	// Sources/Targets restrict the answer; nil means unrestricted, a
	// present-but-empty list is an empty restriction (it selects nothing).
	// Not omitempty: an empty restriction must survive re-encoding.
	Sources []string `json:"sources"`
	Targets []string `json:"targets"`

	Output        string `json:"output,omitempty"`
	Limit         int    `json:"limit,omitempty"`
	MaxPathLength int    `json:"max_path_length,omitempty"`

	// Trace asks for the per-pass trace of the closure this request ran:
	// explain.passes carries the passes of the slot build the request
	// itself paid for, and is empty for reads of a built slot.
	Trace bool `json:"trace,omitempty"`
}

// PathStep is one edge of a returned witness path, node names resolved.
type PathStep struct {
	From  string `json:"from"`
	Label string `json:"label"`
	To    string `json:"to"`
}

// QueryAnswer is the response to one QueryRequest. Exactly the fields of
// the request's output are set; Explain names the strategy the planner
// chose and Stats the closure work it performed.
type QueryAnswer struct {
	Output string       `json:"output"`
	Exists *bool        `json:"exists,omitempty"`
	Count  *int         `json:"count,omitempty"`
	Pairs  []NamedPair  `json:"pairs,omitempty"`
	Paths  [][]PathStep `json:"paths,omitempty"`
	// Truncated reports that limit clipped the answer: the full relation
	// has more than count pairs, or the path enumeration found more than
	// count witnesses.
	Truncated bool         `json:"truncated,omitempty"`
	Explain   cfpq.Explain `json:"explain"`
	Stats     cfpq.Stats   `json:"stats"`
}

// Do answers one declarative query: it validates the request, resolves it
// to its slot and answers it with Prepared.Do on the cached handle, grammar
// and RPQ expression alike; an answered query ticks the query counter.
// With Trace set the request runs under a pass trace, which sees the
// passes of a slot build this request runs (cfpq.WithTraceContext reaches
// PrepareCNF) and nothing else.
func (s *Service) Do(ctx context.Context, req QueryRequest) (QueryAnswer, error) {
	ge, res, err := s.do(ctx, req)
	if err != nil {
		return QueryAnswer{}, err
	}
	return renderAnswer(ge, req, res), nil
}

// do is Do up to the Result, with the graph entry that names its nodes:
// POST /v1/query writes the answer from it (writeAnswer). Once the request
// resolved its slot, the entry comes back beside an error too (resolve).
func (s *Service) do(ctx context.Context, req QueryRequest) (*graphEntry, *cfpq.Result, error) {
	switch {
	case req.Graph == "":
		return nil, nil, errors.New("server: graph is required")
	case req.Expr != "":
		if req.Grammar != "" || req.Nonterminal != "" {
			return nil, nil, errors.New("server: expr excludes grammar and nonterminal")
		}
	case req.Grammar == "":
		return nil, nil, errors.New("server: grammar is required for nonterminal queries")
	case req.Nonterminal == "":
		return nil, nil, errors.New("server: one of nonterminal or expr is required")
	}
	var passes *[]cfpq.PassEvent // allocated only for a trace
	if req.Trace {
		passes = new([]cfpq.PassEvent)
		ctx = cfpq.WithTraceContext(ctx, &cfpq.Trace{Pass: func(ev cfpq.PassEvent) {
			// Events' slices are only valid during the hook; copy.
			ev.NNZ = append([]cfpq.NNZ(nil), ev.NNZ...)
			*passes = append(*passes, ev)
		}})
	}
	t := Target{Graph: req.Graph, Grammar: req.Grammar, Backend: req.Backend}
	ge, p, creq, err := s.resolve(ctx, t, req.Nonterminal, req.Expr, req.Sources, req.Targets)
	if err != nil {
		return ge, nil, err
	}
	creq.Output = cfpq.Output(req.Output)
	creq.Limit = req.Limit
	creq.MaxPathLength = req.MaxPathLength
	res, err := p.Do(ctx, creq)
	if err != nil {
		return ge, nil, s.noteErr(err)
	}
	s.obs.queries.Inc()
	if passes != nil {
		res.Explain.Passes = *passes
	}
	return ge, res, nil
}

// renderAnswer shapes a planner Result into the wire answer, resolving
// node names through the graph's name table, pinned after the answer. It
// is the typed form of what writeAnswer writes.
func renderAnswer(ge *graphEntry, req QueryRequest, res *cfpq.Result) QueryAnswer {
	out := answerOutput(req)
	ans := QueryAnswer{Output: out, Explain: res.Explain, Stats: res.Stats}
	switch cfpq.Output(out) {
	case cfpq.OutputExists:
		exists := res.Exists
		ans.Exists = &exists
	case cfpq.OutputCount:
		count := res.Count
		ans.Count = &count
	case cfpq.OutputPaths:
		count := res.Count
		ans.Count = &count
		ans.Truncated = res.Truncated
		ans.Paths = namedPaths(ge.names.ByID(), res.AllPaths())
	default: // pairs
		count := res.Count
		ans.Count = &count
		ans.Truncated = res.Truncated
		ans.Pairs = ge.named(res.AllPairs())
	}
	return ans
}

// answerOutput is the output an answer names: the request's, pairs by
// default.
func answerOutput(req QueryRequest) string {
	if req.Output == "" {
		return string(cfpq.OutputPairs)
	}
	return req.Output
}

// namedPaths resolves witness paths' node names through byID.
func namedPaths(byID []string, paths [][]cfpq.Edge) [][]PathStep {
	out := make([][]PathStep, len(paths))
	for k, path := range paths {
		steps := make([]PathStep, len(path))
		for x, e := range path {
			steps[x] = PathStep{From: graph.NameIn(byID, e.From), Label: e.Label, To: graph.NameIn(byID, e.To)}
		}
		out[k] = steps
	}
	return out
}

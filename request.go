package cfpq

import "fmt"

// Request is the one declarative query shape of this library: it names a
// path language (a CFG non-terminal, an RPQ expression, or a conjunctive
// grammar), an optional restriction (source nodes, target nodes, or both —
// a single pair is one source and one target), and the wanted output
// (existence, a count, the pair relation, or witness paths). A Request is
// evaluated by the planner behind Engine.Do and Prepared.Do, which chooses
// the cheapest evaluation strategy — full closure, source frontier, target
// frontier over the reversed graph, or a cached-index read — instead of
// the caller hard-wiring one; Result.Explain records the choice.
//
// The plain-data fields carry JSON tags, so a Request round-trips through
// encoding/json — the wire shape cfpqd's POST /v1/query speaks (with node
// names in place of ids). Graph, Grammar and Conjunctive are call-site
// bindings and are never serialised.
type Request struct {
	// Nonterminal queries the relation R_Nonterminal of a context-free
	// grammar — Grammar for Engine.Do, the bound grammar for Prepared.Do,
	// or Conjunctive when that is set. Exactly one of Nonterminal and Expr
	// must be set.
	Nonterminal string `json:"nonterminal,omitempty"`
	// Expr queries a regular path query expression — the syntax is
	//
	//	subClassOf_r* type (a | b)+ c?
	//
	// — by compiling the expression to an NFA, the NFA to a right-linear
	// grammar, and planning that grammar like any other CFG query, so
	// restrictions apply to it too.
	Expr string `json:"expr,omitempty"`

	// Grammar is the context-free grammar a Nonterminal request evaluates
	// under Engine.Do. Prepared.Do uses the handle's bound grammar and
	// rejects requests carrying their own.
	Grammar *Grammar `json:"-"`
	// Conjunctive, when set, evaluates Nonterminal under a conjunctive
	// grammar instead of Grammar (upper approximation on cyclic graphs,
	// exact on linear ones — the paper's §7 hypothesis).
	Conjunctive *ConjunctiveGrammar `json:"-"`
	// Graph is the queried graph for Engine.Do. Prepared.Do uses the bound
	// graph and rejects requests carrying their own.
	Graph *Graph `json:"-"`

	// Sources, when non-nil, restricts the answer to pairs (i, j) with
	// i ∈ Sources. A non-nil empty set is a real restriction — it selects
	// nothing. nil means unrestricted. (Deliberately not omitempty: an
	// empty restriction must survive a JSON round trip as [] rather than
	// silently becoming unrestricted.)
	Sources []int `json:"sources"`
	// Targets, when non-nil, restricts the answer to pairs (i, j) with
	// j ∈ Targets, evaluated (absent a cheaper plan) with the source
	// frontier of the reversed graph and grammar. nil means unrestricted.
	Targets []int `json:"targets"`

	// Output selects what the Result carries; the zero value means
	// OutputPairs.
	Output Output `json:"output,omitempty"`
	// Limit bounds the number of pairs (OutputPairs) or paths
	// (OutputPaths) returned; 0 means no pair limit and the default path
	// cap (1024). A clipped answer sets Result.Truncated. OutputCount is
	// exact and rejects a Limit (Validate); OutputExists ignores it.
	Limit int `json:"limit,omitempty"`
	// MaxPathLength bounds the length of enumerated paths (OutputPaths);
	// 0 selects a generous default derived from the instance size.
	MaxPathLength int `json:"max_path_length,omitempty"`
	// EmptyPaths includes the reflexive pairs (v, v) when the queried
	// language contains the empty word (only empty paths are labelled ε).
	// Engine.Do only; a cached index holds the closure relation and
	// Prepared.Do rejects it.
	EmptyPaths bool `json:"empty_paths,omitempty"`
	// Trace asks the evaluation to collect its per-pass trace into
	// Result.Explain.Passes — one PassEvent per closure pass, the table
	// `cfpq -trace` prints. Cached reads run no passes and return an empty
	// table. Collection costs allocations proportional to passes ×
	// non-terminals; leave it off on hot paths.
	Trace bool `json:"trace,omitempty"`
}

// Output selects what a Request computes.
type Output string

// The request outputs.
const (
	// OutputPairs returns the (restricted) pair relation, streamed by
	// Result.Pairs. The zero Output value means OutputPairs.
	OutputPairs Output = "pairs"
	// OutputCount returns only the number of pairs.
	OutputCount Output = "count"
	// OutputExists reports whether any pair satisfies the restriction.
	OutputExists Output = "exists"
	// OutputPaths enumerates witness paths for a single (source, target)
	// pair, streamed by Result.Paths; Limit and MaxPathLength bound the
	// enumeration.
	OutputPaths Output = "paths"
)

// RequestError is the structured validation error of a malformed Request:
// Field names the offending field (as in the JSON wire form), Reason says
// what is wrong with it. HTTP layers map it to a 400.
type RequestError struct {
	Field  string
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("cfpq: invalid request: %s: %s", e.Field, e.Reason)
}

func reqErr(field, format string, args ...any) *RequestError {
	return &RequestError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// normOutput resolves the zero Output value to OutputPairs.
func (r *Request) normOutput() Output {
	if r.Output == "" {
		return OutputPairs
	}
	return r.Output
}

// Validate checks the request's wire-expressible invariants — language
// choice, output kind, restriction shape, bounds — and returns a
// *RequestError naming the offending field. Call-site bindings (Graph,
// Grammar) are checked by Do, which knows which surface is answering.
func (r *Request) Validate() error {
	if r.Nonterminal == "" && r.Expr == "" {
		return reqErr("nonterminal", "one of nonterminal or expr is required")
	}
	if r.Nonterminal != "" && r.Expr != "" {
		return reqErr("expr", "nonterminal and expr are mutually exclusive")
	}
	if r.Conjunctive != nil && r.Expr != "" {
		return reqErr("expr", "a conjunctive grammar answers nonterminal requests only")
	}
	if r.Grammar != nil && r.Expr != "" {
		return reqErr("expr", "a request carries either a Grammar or an Expr, not both")
	}
	if r.Grammar != nil && r.Conjunctive != nil {
		return reqErr("grammar", "a request carries either a Grammar or a Conjunctive grammar, not both")
	}
	switch r.Output {
	case "", OutputPairs, OutputCount, OutputExists, OutputPaths:
	default:
		return reqErr("output", "unknown output %q (want pairs, count, exists or paths)", r.Output)
	}
	if r.Limit < 0 {
		return reqErr("limit", "must be non-negative, got %d", r.Limit)
	}
	if r.Limit > 0 && r.Output == OutputCount {
		// A count is exact by definition; silently capping it would make
		// two different questions answer alike. Rejecting beats ignoring.
		return reqErr("limit", "count output is exact and ignores no limit; drop the limit or ask for pairs")
	}
	if r.MaxPathLength < 0 {
		return reqErr("max_path_length", "must be non-negative, got %d", r.MaxPathLength)
	}
	for _, s := range r.Sources {
		if s < 0 {
			return reqErr("sources", "negative node id %d", s)
		}
	}
	for _, t := range r.Targets {
		if t < 0 {
			return reqErr("targets", "negative node id %d", t)
		}
	}
	if r.normOutput() == OutputPaths {
		if len(r.Sources) != 1 || len(r.Targets) != 1 {
			return reqErr("output", "paths output needs exactly one source and one target")
		}
		if r.Conjunctive != nil {
			return reqErr("output", "conjunctive queries have no path extraction; ask for pairs, count or exists")
		}
	}
	return nil
}

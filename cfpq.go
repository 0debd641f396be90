package cfpq

import (
	"context"
	"io"

	"cfpq/internal/core"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// Re-exported data types. The concrete implementations live in internal
// packages; these aliases are the supported public surface.
type (
	// Graph is an edge-labelled directed multigraph with nodes 0..N-1.
	Graph = graph.Graph
	// Edge is one labelled directed edge.
	Edge = graph.Edge
	// Triple is an RDF triple used by the N-Triples loader.
	Triple = graph.Triple
	// Grammar is a context-free grammar (no designated start symbol).
	Grammar = grammar.Grammar
	// CNF is a grammar compiled to Chomsky Normal Form.
	CNF = grammar.CNF
	// Pair is one (source, target) element of a query relation.
	Pair = matrix.Pair
	// Index holds the evaluated relations of every non-terminal.
	Index = core.Index
	// PathIndex supports the single-path query semantics.
	PathIndex = core.PathIndex
	// Stats reports closure work (passes, matrix products, wall time,
	// peak estimated matrix bytes).
	Stats = core.Stats
	// AllPathsOptions bounds all-path enumeration.
	AllPathsOptions = core.AllPathsOptions
	// Trace is a set of per-evaluation hooks in the style of
	// httptrace.ClientTrace; attach one to a context with WithTraceContext.
	Trace = core.Trace
	// PassEvent describes one closure pass delivered to a Trace.
	PassEvent = core.PassEvent
	// NNZ is one non-terminal's relation size before/after a pass.
	NNZ = core.NNZ
)

// NewGraph returns an empty graph with n nodes; AddEdge grows it on demand.
func NewGraph(n int) *Graph { return graph.New(n) }

// LoadNTriples reads an N-Triples document and expands each triple
// (o, p, s) into the edges (o, p, s) and (s, p+"_r", o), following the
// paper's RDF-to-graph conversion. The returned map gives node id ← IRI.
func LoadNTriples(r io.Reader) (*Graph, map[string]int, error) {
	return graph.LoadNTriples(r)
}

// ParseGrammar parses the grammar text format:
//
//	S -> subClassOf_r S subClassOf | subClassOf_r subClassOf
//	B -> "Quoted Terminal" B x | eps
//
// Upper-case-initial identifiers are non-terminals, everything else (and
// anything quoted) is a terminal, `eps` is the empty string, `|` separates
// alternatives.
func ParseGrammar(text string) (*Grammar, error) { return grammar.ParseString(text) }

// MustParseGrammar is ParseGrammar that panics on error.
func MustParseGrammar(text string) *Grammar { return grammar.MustParse(text) }

// ToCNF converts a grammar to Chomsky Normal Form. Engine.Do does this
// internally; convert explicitly when evaluating many queries against the
// same grammar.
func ToCNF(g *Grammar) (*CNF, error) { return grammar.ToCNF(g) }

// Algorithm1 runs the paper's Algorithm 1 literally — initialise T, then
// T ← T ∪ (T × T) with every product of a pass reading a snapshot of the
// previous pass's state — and calls visit (when non-nil) with each state
// T₀, T₁, … it passes through, the final unchanged one included; visit
// must not retain or mutate the index. It is the reference the engine's
// semi-naive loop — same states, a fraction of the multiplying — is tested
// against and what the quickstart example prints the paper's worked
// example from; it takes no options, budget, trace or context. Answer
// queries with an Engine.
func Algorithm1(b Backend, g *Graph, cnf *CNF, visit func(k int, ix *Index)) (*Index, Stats) {
	return core.Algorithm1(b.mat(), g, cnf, visit)
}

// Option configures an Engine (NewEngine).
type Option func(*Engine)

// WithTraceContext returns a context carrying the trace, the library's one
// per-pass hook: every evaluation run under the returned context, whichever
// engine or Prepared handle runs it — Prepare's build, Do, Evaluate and
// AddEdges' patch alike — fires it with one PassEvent per closure pass:
// phase ("full", "frontier" or "update"), pass index, products,
// per-nonterminal nnz before/after, frontier saturation, estimated bytes,
// wall time. It is the httptrace.ClientTrace idiom. A disabled trace costs
// evaluations one pointer test and no allocations. For a collected per-pass
// table instead of callbacks, set Request.Trace and read
// Result.Explain.Passes.
func WithTraceContext(ctx context.Context, t *Trace) context.Context {
	return core.WithTraceContext(ctx, t)
}

// MemoryBudgetError reports that an evaluation was abandoned because its
// estimated matrix storage outgrew the memory budget (WithMemoryBudget).
// Detect it with errors.As; serving layers map it to HTTP 413.
type MemoryBudgetError = core.MemoryBudgetError

// WithMemoryBudget bounds the estimated matrix bytes one closure
// evaluation may hold at once; a breach fails fast with a
// *MemoryBudgetError before the offending allocation instead of running
// the process out of memory. bytes ≤ 0 means unlimited (the default).
// It governs every evaluation of the engine it is passed to — including
// Prepare's index build and every Prepared.AddEdges patch. Every
// evaluation — cold build, source-restricted query and incremental patch
// alike — runs the same semi-naive loop, so the estimate
// always covers the index matrices plus the loop's two frontier sets (the
// bits the last pass added and the ones the coming pass adds): up to two
// more empty matrices per non-terminal — charged in full when an
// evaluation starts, as held (two per rule head) by each pass — 24 bytes
// per node each on the sparse backends, which also count the column
// indexes held and the one a pass may build per matrix its products take
// as left operand, a bitmap each on the dense ones. A budget that fits the
// finished index alone therefore does not fit its build. Kernel scratch
// is not counted.
func WithMemoryBudget(bytes int64) Option {
	return func(e *Engine) { e.coreOpts = append(e.coreOpts, core.WithMemoryBudget(bytes)) }
}

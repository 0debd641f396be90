package cfpq

import (
	"iter"
	"slices"
)

// Strategy names one of the planner's evaluation strategies — the value
// Result.Explain records.
type Strategy string

// The planner strategies.
const (
	// StrategyFull evaluates the full all-pairs closure (the paper's
	// Algorithm 1) and filters afterwards. Chosen for unrestricted
	// queries, path enumeration and conjunctive grammars.
	StrategyFull Strategy = "full"
	// StrategySourceFrontier evaluates only the matrix rows reachable from
	// the source restriction.
	StrategySourceFrontier Strategy = "source-frontier"
	// StrategyTargetFrontier evaluates the source frontier of the reversed
	// graph under the reversed grammar — the CFPQ duality
	// (i, j) ∈ R(G, D) ⟺ (j, i) ∈ R(rev G, rev D) — answering "what
	// reaches these targets?" without the full closure.
	StrategyTargetFrontier Strategy = "target-frontier"
	// StrategyCachedRead answers from a Prepared handle's cached closure
	// index with no closure work at all.
	StrategyCachedRead Strategy = "cached-read"
)

// Explain records which plan answered a Request and why — the query
// surface's analogue of EXPLAIN output.
type Explain struct {
	// Strategy is the evaluation strategy the planner chose.
	Strategy Strategy `json:"strategy"`
	// Reason says, in one sentence, why that strategy won.
	Reason string `json:"reason"`
	// Frontier is the number of active rows a frontier strategy ended up
	// maintaining (0 for full and cached-read).
	Frontier int `json:"frontier,omitempty"`
	// Saturated reports that a frontier strategy's active rows ended up
	// being every row (Frontier equals the node count): the restriction
	// saved nothing and the evaluation was the full closure's work.
	Saturated bool `json:"saturated,omitempty"`
	// Passes is the evaluation's per-pass trace, collected only when the
	// Request set Trace: one event per closure pass carrying products,
	// per-nonterminal nnz before/after, frontier saturation, estimated
	// bytes and wall time. Empty for cached reads (no closure ran).
	Passes []PassEvent `json:"passes,omitempty"`
}

// Result is the answer to one Request. Exactly the fields of the request's
// Output are meaningful: Exists for OutputExists, Count for OutputCount
// (and the pair/path count for the streaming outputs), Pairs for
// OutputPairs, Paths for OutputPaths. Stats is the closure work this
// evaluation performed (zero for cached reads) and Explain names the plan.
//
// A Result is safe to read from several goroutines. Every pairs answer is
// a walk of one relation matrix, not a copied-out list: a Prepared answer
// walks the index version it pinned, and an Engine.Do answer the relation
// matrix its plan ended in (for a source-frontier plan only the
// frontier's rows of it, for a target-frontier plan only the targets'
// columns). Holding the Result holds that one matrix in memory — not the
// rest of the index it came from.
type Result struct {
	// Exists answers OutputExists.
	Exists bool `json:"exists,omitempty"`
	// Count answers OutputCount; for OutputPairs and OutputPaths it is the
	// number of elements the result streams (after Limit).
	Count int `json:"count"`
	// Truncated reports that Limit clipped the answer: an OutputPairs
	// relation with more than Count pairs, or an OutputPaths enumeration
	// with more than Count witnesses within MaxPathLength. Without it, a
	// limited request cannot distinguish "exactly Limit exist" from "at
	// least Limit exist". (OutputPaths without a Limit runs under the
	// enumerator's default cap, which is not reported here.)
	Truncated bool `json:"truncated,omitempty"`
	// Stats is the closure work performed by this evaluation.
	Stats Stats `json:"stats"`
	// Explain records the chosen plan.
	Explain Explain `json:"explain"`

	// A pairs answer is rel, a walk of its relation matrix; a paths answer
	// keeps its enumeration for AllPaths to hand out without a copy.
	rel   *walk
	paths [][]Edge
}

// Pairs streams the result relation of an OutputPairs request in
// row-major order, walking the relation matrix the answer was read from.
// Iteration holds no lock and yields the same pairs every time. Other
// outputs stream nothing.
func (r *Result) Pairs() iter.Seq[Pair] {
	if r.rel == nil {
		return func(func(Pair) bool) {}
	}
	return r.rel.pairs
}

// AllPairs returns the pairs Pairs streams as a fresh slice on every call,
// allocated once at its final size (nil when there are none).
func (r *Result) AllPairs() []Pair {
	if r.rel == nil || r.Count == 0 {
		return nil
	}
	// Not AppendSeq over Pairs: called directly, the walk's closure stays
	// on the stack, so the slice is AllPairs' one allocation.
	out := make([]Pair, 0, r.Count)
	r.rel.pairs(func(p Pair) bool { out = append(out, p); return true })
	return out
}

// Paths streams the witness paths of an OutputPaths request in
// nondecreasing length order — a snapshot, like Pairs.
func (r *Result) Paths() iter.Seq[[]Edge] {
	return slices.Values(r.paths)
}

// AllPaths returns the witness paths as a slice — the same snapshot Paths
// streams, with no extra copy.
func (r *Result) AllPaths() [][]Edge {
	return r.paths
}

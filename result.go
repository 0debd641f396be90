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
// A Result is safe to read from several goroutines. The pairs of a
// Prepared answer are not copied out: the Result pins the index version it
// was read from, and Pairs walks that version's rows, so holding the
// Result holds that version's relation in memory.
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

	// A Prepared pairs answer is rel, a walk of the pinned version; the
	// evaluation strategies materialise theirs, and the backing slices are
	// kept for AllPairs/AllPaths to hand out without a second copy.
	rel   *walk
	pairs []Pair
	paths [][]Edge
}

// Pairs streams the result relation of an OutputPairs request in
// row-major order: from the pinned version for a Prepared answer, from the
// materialised pairs otherwise. Either way iteration holds no lock and
// yields the same pairs every time. Other outputs stream nothing.
func (r *Result) Pairs() iter.Seq[Pair] {
	if r.rel != nil {
		return r.rel.pairs
	}
	return sliceSeq(r.pairs)
}

// AllPairs returns the pairs Pairs streams as a slice: the materialised
// one itself, or for a Prepared answer a fresh copy on every call.
func (r *Result) AllPairs() []Pair {
	if r.rel == nil {
		return r.pairs
	}
	if r.Count == 0 {
		return nil
	}
	return slices.AppendSeq(make([]Pair, 0, r.Count), r.Pairs())
}

// Paths streams the witness paths of an OutputPaths request in
// nondecreasing length order — a snapshot, like Pairs.
func (r *Result) Paths() iter.Seq[[]Edge] {
	return sliceSeq(r.paths)
}

// AllPaths returns the witness paths as a slice — the same snapshot Paths
// streams, with no extra copy.
func (r *Result) AllPaths() [][]Edge {
	return r.paths
}

// sliceSeq streams a materialised slice.
func sliceSeq[T any](xs []T) iter.Seq[T] {
	return func(yield func(T) bool) {
		for _, x := range xs {
			if !yield(x) {
				return
			}
		}
	}
}

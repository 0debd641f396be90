package core

import (
	"fmt"

	"cfpq/internal/matrix"
)

// MemoryBudgetError reports that a closure evaluation was abandoned
// because its estimated matrix storage outgrew the engine's memory
// budget (WithMemoryBudget). An index under construction is discarded; an
// index being updated keeps the sound, partially propagated state
// UpdateContext documents. The error fires before the allocation that
// would breach the budget, not after the process is already swapping.
type MemoryBudgetError struct {
	// BudgetBytes is the configured allowance.
	BudgetBytes int64
	// EstimatedBytes is the estimate that breached it.
	EstimatedBytes int64
}

func (e *MemoryBudgetError) Error() string {
	return fmt.Sprintf("core: memory budget exceeded: closure needs an estimated %d bytes, budget is %d", e.EstimatedBytes, e.BudgetBytes)
}

// WithMemoryBudget bounds the estimated matrix bytes a single closure
// evaluation may hold at once. The estimate covers the index matrices plus
// the two frontier sets the one fixpoint loop keeps beside them for every
// evaluation — cold build, source-restricted closure and incremental
// update alike: the bits the last pass added and the ones the coming pass
// adds, two matrices for each non-terminal a rule writes and one for a
// seeded other, 24·n bytes each on the sparse backends and a bitmap each
// on the dense ones even while empty (admit charges all 2·|N| up front) —
// plus, on the sparse backends, the column indexes the index holds and
// those a pass's products may build (one per distinct left operand that
// holds none), and, for an update run on a Fork, the storage of the
// version forked from that the fork does not share (two versions are
// live). It is checked before matrix allocation — for an update whose
// edges name new nodes, at the dimension they grow the index to, before it
// is grown — and between fixpoint passes, and a breach aborts the
// evaluation with a *MemoryBudgetError. bytes ≤ 0 means unlimited (the
// default). The budget is enforced on the context-taking evaluation paths
// (RunContext, CloseContext, RunFromContext, UpdateContext and everything
// built on them).
func WithMemoryBudget(bytes int64) Option {
	return func(e *Engine) { e.budget = bytes }
}

// Bytes estimates the heap bytes of the index's relation matrices — plus,
// on a fork not yet detached, the unshared storage of the version it was
// forked from (see Fork).
func (ix *Index) Bytes() int64 {
	total := ix.beside
	for _, m := range ix.mats {
		total += m.Bytes()
	}
	return total
}

// checkBudget returns a *MemoryBudgetError when estimated bytes exceed
// the engine's budget; a zero or negative budget never fails.
func (e *Engine) checkBudget(estimated int64) error {
	if e.budget > 0 && estimated > e.budget {
		return &MemoryBudgetError{BudgetBytes: e.budget, EstimatedBytes: estimated}
	}
	return nil
}

// productBytes bounds what the coming pass's products may add to their
// left operands (matrix.Bool.ProductBytes), charging each distinct operand
// once however many rules multiply it: T_B where some rule B C runs
// T_B × Δ_C (T_B × T_C on the whole-index pass), Δ_B where some rule runs
// Δ_B × T_C.
func (f *frontier) productBytes(ix *Index) (total int64) {
	nn := len(ix.mats)
	for _, r := range ix.cnf.Binary {
		f.left[r.B] = f.left[r.B] || f.whole || f.live[r.C]
		f.left[nn+r.B] = f.left[nn+r.B] || f.live[r.B]
	}
	for b, left := range f.left {
		switch {
		case !left:
			continue
		case b < nn:
			total += ix.mats[b].ProductBytes()
		default:
			total += f.delta[b-nn].ProductBytes()
		}
		f.left[b] = false
	}
	return total
}

// matsBytes sums the byte estimates of a working matrix set (one of the
// two frontier sets); a nil slot holds nothing.
func matsBytes(mats []matrix.Bool) int64 {
	var total int64
	for _, m := range mats {
		if m != nil {
			total += m.Bytes()
		}
	}
	return total
}

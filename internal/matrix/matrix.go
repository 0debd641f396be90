// Package matrix provides hand-rolled Boolean matrix kernels for the
// matrix-based CFPQ algorithm: bit-packed dense matrices and CSR sparse
// matrices, one multiplication kernel each. Go has no mature sparse linear
// algebra ecosystem, so everything here is implemented from scratch against
// the small surface the closure loop needs:
//
//	dst |= a × b   (Boolean semiring: AND for ×, OR for +)
//	dst |= src
//	nnz, equality, iteration
//
// The Backend/Bool pair lets the query engine stay agnostic of the
// representation; the two backends stand in for the paper's matrix
// implementations (dense for dGPU, sparse for sCPU). The paper's sparse GPU
// kernel has none: goroutine drivers that split a product's rows across
// cores measured slower than these kernels alone on nearly every input
// (2-vCPU Xeon), so each representation has one kernel, and a product runs
// on its caller's goroutine.
package matrix

// Bool is a square Boolean matrix. Implementations are NOT safe for
// concurrent mutation; the closure loop mutates one matrix at a time.
//
// Versions. Fork is how a serving layer derives the next version of a
// matrix beside readers of the current one, and it rests on one invariant:
// a row slice reachable from a published version is never written again.
// The sparse mutators keep it by construction — Or, And, AndNot, AddMul,
// Clear and Grow replace a row (or the row list) with a fresh or an
// untouched slice, never edit one — and Set, the one mutator that inserts
// in place, replaces the row too on a matrix that has been forked. The
// reads of a published version (Get, Range, RangeRow, Nnz, Bytes, Dim)
// touch no field Fork or a writer writes. A sparse fork also shares its
// origin's column index (below), which every writer of the line appends
// to: sound because a line of versions has one writer at a time, and
// those reads never look at the index.
//
// Live rows. A sparse matrix lists its non-empty rows — each exactly once,
// kept where rows are written — and every operation that only concerns
// rows holding a bit (AddMul over its left operand, Or over its argument,
// And, AndNot, Clear, Clone, Equal) walks that list, not all n row
// headers: an operation on a nearly empty matrix costs what the matrix
// holds, whatever its dimension. A product whose right operand holds fewer
// live rows walks instead the left operand's column → rows index, once
// walking has paid for building it: T_B × a thin Δ_C costs what Δ_C holds.
//
// Mixing matrices from different backends in AddMul/Or/Equal is a
// programming error and panics: the CFPQ engine allocates every matrix from
// a single backend.
type Bool interface {
	// Dim returns the matrix dimension n (the matrix is n×n).
	Dim() int
	// Get reports whether entry (i, j) is set.
	Get(i, j int) bool
	// Set sets entry (i, j).
	Set(i, j int)
	// Nnz returns the number of set entries.
	Nnz() int
	// AddMul computes m |= a × b over the Boolean semiring and reports
	// whether m changed. a and b must come from the same backend as m;
	// m may alias a and/or b (the product is then computed before
	// merging). Only rows in which a holds a bit can change, which is what
	// confines the source-restricted closure to its active rows without a
	// mask. b is only read. So is a, unless it is sparse and b holds fewer
	// live rows: then a may rent, build or use its column index (see Live
	// rows), so it is written and must not be in a concurrent product.
	AddMul(a, b Bool) bool
	// Clear empties the matrix, keeping its storage for the next fill, in
	// time proportional to what it holds (a dense matrix holds its whole
	// bitmap). It is how the closure reuses its frontier matrices
	// from pass to pass.
	Clear()
	// Or computes m |= other and reports whether m changed.
	Or(other Bool) bool
	// And computes m &= other (intersection) and reports whether m
	// changed. Used by the conjunctive-grammar extension.
	And(other Bool) bool
	// AndNot computes m &= ¬other (set difference) and reports whether m
	// changed. Used by the semi-naive pass of the source-restricted
	// closure and of incremental updates to keep only genuinely new bits.
	AndNot(other Bool) bool
	// Equal reports whether m and other have identical entries.
	Equal(other Bool) bool
	// Grow resizes the matrix in place to n×n (n ≥ Dim), preserving every
	// set entry; the new rows and columns are empty. Growing is what lets
	// an evaluated index absorb edges that enlarge the node set without a
	// from-scratch rebuild. n < Dim is a no-op.
	Grow(n int)
	// Clone returns an independent copy.
	Clone() Bool
	// Fork returns a matrix with the receiver's entries that may be
	// mutated while other goroutines keep reading the receiver: no
	// mutation of the fork is visible through, or races with reads of, the
	// receiver. A sparse fork shares every row slice, and the row
	// list too until the fork is first written — that write copies the
	// list, O(n) whatever the matrix holds, and a fork never written costs
	// nothing (see the invariant in the type comment) — and the column
	// index for good, so one side is written at a time; a dense matrix,
	// the paper's reference rather than a serving option, Clones.
	// The receiver must not be mutated concurrently with Fork itself.
	Fork() Bool
	// Range calls fn for every set entry in row-major order; fn returning
	// false stops the iteration.
	Range(fn func(i, j int) bool)
	// RangeRow calls fn for the set entries of row i in column order and
	// reports whether it ran to the end of the row (fn returning false
	// stops it). The cost is the row's, not the matrix's: it is how a
	// source-restricted read avoids scanning the relation.
	RangeRow(i int, fn func(j int) bool) bool
	// Bytes estimates the heap bytes this matrix currently occupies
	// (backing storage, not Go object headers beyond the per-row ones).
	// The closure memory budget sums these estimates to fail fast before
	// an evaluation outgrows its allowance.
	Bytes() int64
	// ProductBytes estimates the most an AddMul taking the matrix as its
	// left operand may add to Bytes: a sparse matrix's column index (see
	// Live rows) while it holds a bit and no index, 0 otherwise and on the
	// dense backend. The closure memory budget charges it before a pass.
	ProductBytes() int64
}

// Backend allocates matrices of one representation.
type Backend interface {
	// Name identifies the backend in benchmark output, serialised indexes
	// and store files: "dense" or "sparse".
	Name() string
	// NewMatrix returns an empty n×n matrix.
	NewMatrix(n int) Bool
	// EmptyBytes estimates the heap bytes an empty n×n matrix of this
	// backend occupies — what NewMatrix(n).Bytes() would report, without
	// allocating. Budget checks use it to reject an evaluation whose
	// empty index alone exceeds the allowance.
	EmptyBytes(n int) int64
}

// Pair is a set entry (I, J) extracted from a matrix.
type Pair struct {
	I, J int
}

// Pairs collects all set entries of m in row-major order; an empty matrix
// yields nil (so empty relations compare equal across evaluators).
func Pairs(m Bool) []Pair {
	if m.Nnz() == 0 {
		return nil
	}
	out := make([]Pair, 0, m.Nnz())
	m.Range(func(i, j int) bool {
		out = append(out, Pair{i, j})
		return true
	})
	return out
}

// Backends returns both backends, in the order the paper's tables report
// them: dense (dGPU), then sparse (sCPU).
func Backends() []Backend {
	return []Backend{Dense(), Sparse()}
}

// BackendByName resolves a backend by its Name() — the form backend
// identity is recorded in on serialised indexes (CFPQIDX2) and store
// files. The names of the retired row-parallel kernels, "dense-parallel"
// and "sparse-parallel", resolve to the backend of the same
// representation, so indexes, store files and clients that carry them
// keep working.
func BackendByName(name string) (Backend, bool) {
	switch name {
	case "dense", "dense-parallel":
		return Dense(), true
	case "sparse", "sparse-parallel":
		return Sparse(), true
	}
	return nil, false
}

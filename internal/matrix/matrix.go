// Package matrix provides hand-rolled Boolean matrix kernels for the
// matrix-based CFPQ algorithm: bit-packed dense matrices and CSR sparse
// matrices, one multiplication kernel each. Go has no mature sparse linear
// algebra ecosystem, so everything here is implemented from scratch against
// the small surface the closure loop needs:
//
//	dst |= a × b   (Boolean semiring: AND for ×, OR for +)
//	dst |= src, and src \= dst beforehand (Absorb)
//	nnz, equality, iteration, bulk construction (Build, FromCSR)
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
// The sparse mutators keep it by construction — Or, And, AddMul, Clear and
// Grow replace a row (or the row list) with a fresh or an untouched slice
// — and the ones that write in place do so only on a matrix nobody else
// reads: Set and Absorb grow m's rows in place while m is unshared, and
// replace a row they grow on a matrix that has ever been forked;
// Absorb trims its argument in place, copying a row it shares first; and
// Clear hands its rows' storage to the next fill, which Fork takes away
// from both sides. The reads of a published version (Get, Range, RangeRow,
// Nnz, Bytes, Dim) touch no field Fork or a writer writes. A sparse fork
// also shares its origin's column index (below), which every writer of the
// line appends to: sound because a line of versions has one writer at a
// time, and those reads never look at the index.
//
// Live rows. A sparse matrix lists its non-empty rows — each exactly once,
// kept where rows are written — and every operation that only concerns
// rows holding a bit (AddMul over its left operand, Or and Absorb over
// their argument, And, Clear, Clone, Equal) walks that list, not all n row
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
	// bitmap): a sparse matrix writes the rows of its next fill into the
	// storage of the rows it held since its last Fork, if any. So a row
	// taken from a matrix is dead once the matrix is cleared, and whatever
	// keeps one — Absorb, Or, Clone — copies it. It is how the closure
	// reuses its frontier matrices from pass to pass.
	Clear()
	// Or computes m |= other and reports whether m changed.
	Or(other Bool) bool
	// And computes m &= other (intersection) and reports whether m
	// changed. Used by the conjunctive-grammar extension.
	And(other Bool) bool
	// Absorb computes m |= next and leaves in next only the bits that were
	// new to m (next \ m, taken before the union), in one pass over next's
	// rows; it reports whether m grew. It is the tail of every semi-naive
	// pass: T_A absorbs the pass's products, and what is left of them is
	// the next pass's Δ_A. next must not be m; it is written, so it must
	// not be in a concurrent product either.
	Absorb(next Bool) bool
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
	// (backing storage, not Go object headers beyond the per-row ones):
	// a sparse matrix charges the headroom its rows hold as well, and one
	// nothing has written, which holds no row list yet, reports 0.
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
	// NewMatrix returns an empty n×n matrix. A sparse one allocates its
	// row list at its first write.
	NewMatrix(n int) Bool
	// EmptyBytes estimates the heap bytes an empty n×n matrix of this
	// backend costs once written — a dense bitmap, a sparse row list (a
	// sparse matrix nothing has written reports 0) — without allocating.
	// Budget checks use it to reject an evaluation whose empty index alone
	// exceeds the allowance.
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

// RangeRows calls fn for each non-empty row of m, in row order, with the
// row's set columns in ascending order, and stops when fn returns false. A
// sparse row is passed as the matrix's own storage — fn must neither keep
// nor write it — and a dense one decoded into a scratch slice reused from
// row to row. It is how an index is encoded, and a relation read, a row at
// a time.
func RangeRows(m Bool, fn func(i int, cols []int32) bool) {
	if s, ok := m.(*SparseMatrix); ok {
		for i, row := range s.rows {
			if len(row) > 0 && !fn(i, row) {
				return
			}
		}
		return
	}
	var cols []int32
	for i := range m.Dim() {
		if cols = denseRow(m, i, cols[:0]); len(cols) > 0 && !fn(i, cols) {
			return
		}
	}
}

// Row returns the set columns of row i in ascending order, as RangeRows
// passes them: a sparse row as the matrix's own storage, which the caller
// must not write, and a dense one decoded into buf.
func Row(m Bool, i int, buf []int32) []int32 {
	if s, ok := m.(*SparseMatrix); ok {
		s.check(i, 0)
		return s.row(i)
	}
	return denseRow(m, i, buf[:0])
}

// denseRow is Row off the sparse path, whose buf the closure moves to the
// heap.
func denseRow(m Bool, i int, buf []int32) []int32 {
	m.RangeRow(i, func(j int) bool {
		buf = append(buf, int32(j))
		return true
	})
	return buf
}

// AppendKeys appends m's set entries to dst as packed keys i<<32 | j and
// returns the extended slice: a sparse matrix's through its live rows, so
// at the cost of what it holds and in no row order, a dense one's by a
// scan of its bitmap. It is how an update collects its Delta.
func AppendKeys(dst []uint64, m Bool) []uint64 {
	if s, ok := m.(*SparseMatrix); ok {
		for _, i := range s.live {
			for _, j := range s.rows[i] {
				dst = append(dst, uint64(i)<<32|uint64(j))
			}
		}
		return dst
	}
	keys := dst // the closure moves keys to the heap, here only, not dst
	m.Range(func(i, j int) bool {
		keys = append(keys, uint64(i)<<32|uint64(j))
		return true
	})
	return keys
}

// LiveRows returns the number of m's non-empty rows: the length of a sparse
// matrix's live list, or a scan of a dense matrix's rows.
func LiveRows(m Bool) int {
	if s, ok := m.(*SparseMatrix); ok {
		return len(s.live)
	}
	live := 0
	for i := range m.Dim() {
		if !m.RangeRow(i, func(int) bool { return false }) {
			live++
		}
	}
	return live
}

// Build returns an n×n matrix of backend be holding the entries each
// reports through emit, in any order and with repeats allowed. each runs
// more than once — a sparse matrix counts its entries before it places
// them, in one exactly sized array with each row a capped window of it —
// and must report the same entries every time. It is how the cold build's
// Init fills a relation from the edges of several labels.
func Build(be Backend, n int, each func(emit func(i, j int))) Bool {
	return convert(be, buildSparse(n, each))
}

// FromCSR returns an n×n matrix of backend be holding the rows live lists,
// in compressed sparse row form: row live[k] holds the columns
// cols[ends[k-1]:ends[k]] (from 0 for k = 0). Rows must be strictly
// increasing and below n, each non-empty, the last ending at len(cols),
// and each row's columns strictly increasing and below n; any other input
// is an error. A sparse matrix adopts cols, each row a capped window of
// it, and live as its live list; ends is not kept. It is how DecodeIndex
// builds a relation.
func FromCSR(be Backend, n int, live, ends, cols []int32) (Bool, error) {
	m, err := csrSparse(n, live, ends, cols)
	if err != nil {
		return nil, err
	}
	return convert(be, m), nil
}

// convert returns m, or a copy of it on another backend.
func convert(be Backend, m *SparseMatrix) Bool {
	if _, ok := be.(sparseBackend); ok {
		return m
	}
	out := be.NewMatrix(m.n)
	m.Range(func(i, j int) bool {
		out.Set(i, j)
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
// identity is recorded in on serialised indexes (CFPQIDX4) and store
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

package matrix

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// SparseMatrix is a row-compressed sparse Boolean matrix: each row stores
// its set column indices as a sorted []int32 (the per-row view of the CSR
// format the paper's sCPU/sGPU implementations use). Multiplication is
// row-wise SpGEMM where each product row is the union of the b-rows
// selected by the a-row, computed by a balanced tree of sorted-list merges
// (see rowMerger) — O(nnz·log fan-in) per row with no n-sized scratch and
// no sort, so the cost tracks the output size rather than the dimension.
// The parallel flavour distributes rows across goroutines exactly the way
// CUSPARSE distributes them across thread blocks, which is why
// SparseParallel serves as the paper's sGPU stand-in.
type SparseMatrix struct {
	n       int
	rows    [][]int32
	nnz     int
	workers int
	// parallel selects the row-parallel kernel.
	parallel bool
	// shared marks a matrix whose row slices another matrix may also hold
	// (it was forked, or is a fork): Set then replaces the row it inserts
	// into instead of shifting it in place. It stays set for good.
	shared bool
	// borrowed marks a matrix whose row list itself is still the one its
	// fork (or origin) reads: setRow copies the list before the first row
	// is replaced, so a fork that is never written costs nothing.
	borrowed bool
}

type sparseBackend struct {
	parallel bool
	workers  int
}

// Sparse returns the serial sparse backend (paper: sCPU).
func Sparse() Backend { return sparseBackend{} }

// SparseParallel returns the row-parallel sparse backend (paper: sGPU);
// workers ≤ 0 means GOMAXPROCS.
func SparseParallel(workers int) Backend {
	return sparseBackend{parallel: true, workers: workers}
}

func (s sparseBackend) Name() string {
	if s.parallel {
		return "sparse-parallel"
	}
	return "sparse"
}

func (s sparseBackend) NewMatrix(n int) Bool {
	return &SparseMatrix{
		n:        n,
		rows:     make([][]int32, n),
		parallel: s.parallel,
		workers:  s.workers,
	}
}

// EmptyBytes estimates the row-header storage of an empty n×n sparse
// matrix (24 bytes per row slice header).
func (s sparseBackend) EmptyBytes(n int) int64 {
	return 24 * int64(n)
}

// NewSparse returns an empty serial n×n sparse matrix (convenience for
// tests and direct use).
func NewSparse(n int) *SparseMatrix {
	return Sparse().NewMatrix(n).(*SparseMatrix)
}

// Dim returns the matrix dimension.
func (m *SparseMatrix) Dim() int { return m.n }

func (m *SparseMatrix) check(i, j int) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %d×%d", i, j, m.n, m.n))
	}
}

// Get reports entry (i, j) by binary search within the row.
func (m *SparseMatrix) Get(i, j int) bool {
	m.check(i, j)
	row := m.rows[i]
	k := sort.Search(len(row), func(x int) bool { return row[x] >= int32(j) })
	return k < len(row) && row[k] == int32(j)
}

// Set inserts entry (i, j), keeping the row sorted. The row is shifted in
// place — the cold build's Init pays no allocation per edge — unless the
// matrix shares its rows with a fork, in which case the row is replaced by
// a copy and the shared slice stays as its other holders see it.
func (m *SparseMatrix) Set(i, j int) {
	m.check(i, j)
	row := m.rows[i]
	k := sort.Search(len(row), func(x int) bool { return row[x] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		return
	}
	if m.shared {
		grown := make([]int32, len(row)+1)
		copy(grown, row[:k])
		grown[k] = int32(j)
		copy(grown[k+1:], row[k:])
		m.setRow(i, grown)
		return
	}
	row = append(row, 0)
	copy(row[k+1:], row[k:])
	row[k] = int32(j)
	m.rows[i] = row
	m.nnz++
}

// setRow replaces row i — how every mutator but the in-place Set writes a
// row — first taking a private copy of the row list if a fork still reads
// this one.
func (m *SparseMatrix) setRow(i int, row []int32) {
	if m.borrowed {
		m.rows = slices.Clone(m.rows)
		m.borrowed = false
	}
	m.nnz += len(row) - len(m.rows[i])
	m.rows[i] = row
}

// Nnz returns the number of set entries.
func (m *SparseMatrix) Nnz() int { return m.nnz }

// Bytes estimates the heap bytes of the row storage: 24 bytes per row
// slice header plus 4 bytes per stored column index.
func (m *SparseMatrix) Bytes() int64 {
	return 24*int64(m.n) + 4*int64(m.nnz)
}

// Grow resizes the matrix to n×n in place, keeping every entry. The CSR
// row list simply gains empty rows; column indices need no translation.
func (m *SparseMatrix) Grow(n int) {
	if n <= m.n {
		return
	}
	rows := make([][]int32, n)
	copy(rows, m.rows)
	m.rows, m.borrowed = rows, false
	m.n = n
}

// Clone returns an independent copy.
func (m *SparseMatrix) Clone() Bool {
	cp := &SparseMatrix{
		n:        m.n,
		rows:     make([][]int32, m.n),
		nnz:      m.nnz,
		parallel: m.parallel,
		workers:  m.workers,
	}
	for i, row := range m.rows {
		if len(row) > 0 {
			nr := make([]int32, len(row))
			copy(nr, row)
			cp.rows[i] = nr
		}
	}
	return cp
}

// Fork returns a matrix over the same rows in O(1): row slices and row
// list are shared, and both sides are marked so — whichever is mutated
// next copies the list (O(n), once) before replacing its first row and
// leaves every shared row slice as the other reads it.
func (m *SparseMatrix) Fork() Bool {
	m.shared, m.borrowed = true, true
	cp := *m
	return &cp
}

// Equal reports entry-wise equality.
func (m *SparseMatrix) Equal(other Bool) bool {
	o := mustSparse(other, m.n)
	if m.nnz != o.nnz {
		return false
	}
	for i := range m.rows {
		a, b := m.rows[i], o.rows[i]
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
	}
	return true
}

// Range iterates set entries in row-major order.
func (m *SparseMatrix) Range(fn func(i, j int) bool) {
	for i, row := range m.rows {
		for _, j := range row {
			if !fn(i, int(j)) {
				return
			}
		}
	}
}

// RangeRow iterates the set entries of row i in column order.
func (m *SparseMatrix) RangeRow(i int, fn func(j int) bool) bool {
	m.check(i, 0)
	for _, j := range m.rows[i] {
		if !fn(int(j)) {
			return false
		}
	}
	return true
}

// Or computes m |= other.
func (m *SparseMatrix) Or(other Bool) bool {
	o := mustSparse(other, m.n)
	changed := false
	for i := range m.rows {
		merged, grew := unionSorted(m.rows[i], o.rows[i])
		if grew {
			m.setRow(i, merged)
			changed = true
		}
	}
	return changed
}

// And computes m &= other.
func (m *SparseMatrix) And(other Bool) bool {
	o := mustSparse(other, m.n)
	changed := false
	for i := range m.rows {
		kept := intersectSorted(m.rows[i], o.rows[i])
		if len(kept) != len(m.rows[i]) {
			m.setRow(i, kept)
			changed = true
		}
	}
	return changed
}

// AndNot computes m &= ¬other.
func (m *SparseMatrix) AndNot(other Bool) bool {
	o := mustSparse(other, m.n)
	changed := false
	for i := range m.rows {
		kept := differenceSorted(m.rows[i], o.rows[i])
		if len(kept) != len(m.rows[i]) {
			m.setRow(i, kept)
			changed = true
		}
	}
	return changed
}

// intersectSorted returns a ∩ b for sorted unique slices. When nothing is
// dropped, a is returned as-is.
func intersectSorted(a, b []int32) []int32 {
	var out []int32
	i, j, kept := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			kept++
			i++
			j++
		}
	}
	if kept == len(a) {
		return a
	}
	out = make([]int32, 0, kept)
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// differenceSorted returns a \ b for sorted unique slices. When nothing is
// dropped, a is returned as-is.
func differenceSorted(a, b []int32) []int32 {
	dropped := 0
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			dropped++
		}
	}
	if dropped == 0 {
		return a
	}
	out := make([]int32, 0, len(a)-dropped)
	j = 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// AddMul computes m |= a × b with merge-based row products. All product
// rows are materialised before merging, so m may alias a or b.
func (m *SparseMatrix) AddMul(a, b Bool) bool {
	sa := mustSparse(a, m.n)
	sb := mustSparse(b, m.n)
	prod := make([][]int32, m.n)
	if m.parallel {
		m.spgemmParallel(sa, sb, prod)
	} else {
		var rm rowMerger
		for i := 0; i < m.n; i++ {
			prod[i] = rm.productRow(sa, sb, i)
		}
	}
	changed := false
	for i := range m.rows {
		if len(prod[i]) == 0 {
			continue
		}
		merged, grew := unionSorted(m.rows[i], prod[i])
		if grew {
			m.setRow(i, merged)
			changed = true
		}
	}
	return changed
}

// AddMulRows is AddMul restricted to the masked rows: only rows i with
// rows[i] set are multiplied and merged. The row list, scratch space and
// merge scan are sized to the masked rows, so a small frontier pays for
// its own rows only (plus one O(n) sweep to collect them).
func (m *SparseMatrix) AddMulRows(a, b Bool, rows []bool) bool {
	if len(rows) != m.n {
		panic(fmt.Sprintf("matrix: row mask length %d for %d×%d", len(rows), m.n, m.n))
	}
	sa := mustSparse(a, m.n)
	sb := mustSparse(b, m.n)
	idx := make([]int, 0, len(rows))
	for i, on := range rows {
		if on {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return false
	}
	prod := make([][]int32, len(idx))
	if m.parallel && len(idx) > 1 {
		m.spgemmParallelRows(sa, sb, prod, idx)
	} else {
		var rm rowMerger
		for ri, i := range idx {
			prod[ri] = rm.productRow(sa, sb, i)
		}
	}
	changed := false
	for ri, i := range idx {
		if len(prod[ri]) == 0 {
			continue
		}
		merged, grew := unionSorted(m.rows[i], prod[ri])
		if grew {
			m.setRow(i, merged)
			changed = true
		}
	}
	return changed
}

// spgemmParallelRows distributes the listed rows across workers; prod is
// indexed like idx.
func (m *SparseMatrix) spgemmParallelRows(a, b *SparseMatrix, prod [][]int32, idx []int) {
	workers := m.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers <= 1 {
		var rm rowMerger
		for ri, i := range idx {
			prod[ri] = rm.productRow(a, b, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	const grain = 16 // masked row lists are short; keep chunks small
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rm rowMerger
			for {
				lo := int(next.Add(grain)) - grain
				if lo >= len(idx) {
					return
				}
				hi := lo + grain
				if hi > len(idx) {
					hi = len(idx)
				}
				for ri := lo; ri < hi; ri++ {
					prod[ri] = rm.productRow(a, b, idx[ri])
				}
			}
		}()
	}
	wg.Wait()
}

// rowMerger is the per-worker scratch of the merge-based SpGEMM kernel:
// two reusable [][]int32 list buffers plus two ping-pong arenas backing
// the intermediate merge rounds. The zero value is ready to use; capacity
// grows to the working set of the largest row and is then reused, so the
// steady-state kernel allocates only the final product rows.
type rowMerger struct {
	cand, next     [][]int32
	arenaA, arenaB []int32
}

// productRow computes row i of a×b as a freshly allocated sorted column
// list (nil when empty). The candidate rows b.rows[k] for k ∈ a.rows[i]
// are merged pairwise in balanced rounds — a merge tree of depth
// log₂(fan-in) — so the cost is O(output·log fan-in) with no n-sized
// scratch and no sort. Each round writes into the arena its inputs do NOT
// occupy; an odd leftover list is copied into the round's arena rather
// than carried by reference, so every list read in round r+1 lives in
// memory written in round r and arena writes never alias arena reads.
func (rm *rowMerger) productRow(a, b *SparseMatrix, i int) []int32 {
	rm.cand = rm.cand[:0]
	for _, k := range a.rows[i] {
		if row := b.rows[k]; len(row) > 0 {
			rm.cand = append(rm.cand, row)
		}
	}
	if len(rm.cand) == 0 {
		return nil
	}
	cur, free := rm.cand, rm.next
	useA := true
	for len(cur) > 1 {
		arena := rm.arenaB[:0]
		if useA {
			arena = rm.arenaA[:0]
		}
		nxt := free[:0]
		for p := 0; p+1 < len(cur); p += 2 {
			start := len(arena)
			arena = mergeRowsInto(arena, cur[p], cur[p+1])
			nxt = append(nxt, arena[start:len(arena):len(arena)])
		}
		if len(cur)%2 == 1 {
			start := len(arena)
			arena = append(arena, cur[len(cur)-1]...)
			nxt = append(nxt, arena[start:len(arena):len(arena)])
		}
		if useA {
			rm.arenaA = arena
		} else {
			rm.arenaB = arena
		}
		cur, free = nxt, cur
		useA = !useA
	}
	rm.cand, rm.next = cur, free
	out := make([]int32, len(cur[0]))
	copy(out, cur[0])
	return out
}

// mergeRowsInto appends the sorted union of x and y (sorted unique
// slices) to dst and returns the extended slice.
func mergeRowsInto(dst, x, y []int32) []int32 {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			dst = append(dst, x[i])
			i++
		case x[i] > y[j]:
			dst = append(dst, y[j])
			j++
		default:
			dst = append(dst, x[i])
			i++
			j++
		}
	}
	dst = append(dst, x[i:]...)
	return append(dst, y[j:]...)
}

func (m *SparseMatrix) spgemmParallel(a, b *SparseMatrix, prod [][]int32) {
	workers := m.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.n {
		workers = m.n
	}
	if workers <= 1 {
		var rm rowMerger
		for i := 0; i < m.n; i++ {
			prod[i] = rm.productRow(a, b, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	const grain = 64 // rows claimed per fetch, keeps contention low
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rm rowMerger
			for {
				lo := int(next.Add(grain)) - grain
				if lo >= m.n {
					return
				}
				hi := lo + grain
				if hi > m.n {
					hi = m.n
				}
				for i := lo; i < hi; i++ {
					prod[i] = rm.productRow(a, b, i)
				}
			}
		}()
	}
	wg.Wait()
}

// unionSorted merges two sorted unique slices; grew reports whether the
// result has entries beyond a. When nothing is added, a is returned as-is.
func unionSorted(a, b []int32) (merged []int32, grew bool) {
	if len(b) == 0 {
		return a, false
	}
	if len(a) == 0 {
		out := make([]int32, len(b))
		copy(out, b)
		return out, true
	}
	// Fast subset check: count b-elements missing from a.
	extra := 0
	ai := 0
	for _, x := range b {
		for ai < len(a) && a[ai] < x {
			ai++
		}
		if ai >= len(a) || a[ai] != x {
			extra++
		}
	}
	if extra == 0 {
		return a, false
	}
	out := make([]int32, 0, len(a)+extra)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, true
}

// Transpose returns the transposed matrix (same backend flavour).
func (m *SparseMatrix) Transpose() *SparseMatrix {
	t := &SparseMatrix{
		n:        m.n,
		rows:     make([][]int32, m.n),
		nnz:      m.nnz,
		parallel: m.parallel,
		workers:  m.workers,
	}
	// Count per-column first so each transposed row is allocated once.
	counts := make([]int, m.n)
	for _, row := range m.rows {
		for _, j := range row {
			counts[j]++
		}
	}
	for j, c := range counts {
		if c > 0 {
			t.rows[j] = make([]int32, 0, c)
		}
	}
	// Row-major iteration appends column indices in increasing i, so the
	// transposed rows come out sorted.
	for i, row := range m.rows {
		for _, j := range row {
			t.rows[j] = append(t.rows[j], int32(i))
		}
	}
	return t
}

// ToDense converts to a dense matrix (serial backend).
func (m *SparseMatrix) ToDense() *DenseMatrix {
	d := NewDense(m.n)
	m.Range(func(i, j int) bool {
		d.Set(i, j)
		return true
	})
	return d
}

// FromDense converts a dense matrix to a sparse one (serial backend).
func FromDense(d *DenseMatrix) *SparseMatrix {
	s := NewSparse(d.Dim())
	d.Range(func(i, j int) bool {
		s.rows[i] = append(s.rows[i], int32(j))
		s.nnz++
		return true
	})
	return s
}

func mustSparse(b Bool, n int) *SparseMatrix {
	s, ok := b.(*SparseMatrix)
	if !ok {
		panic(fmt.Sprintf("matrix: mixed backends: expected *SparseMatrix, got %T", b))
	}
	if s.n != n {
		panic(fmt.Sprintf("matrix: dimension mismatch: %d vs %d", s.n, n))
	}
	return s
}

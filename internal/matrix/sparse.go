package matrix

import (
	"fmt"
	"slices"
	"sort"
)

// SparseMatrix is a row-compressed sparse Boolean matrix: each row stores
// its set column indices as a sorted []int32 (the per-row view of the CSR
// format the paper's sCPU/sGPU implementations use). Multiplication is
// row-wise SpGEMM where each product row is the union of the b-rows
// selected by the a-row, computed by a balanced tree of sorted-list merges
// (see rowMerger) — O(nnz·log fan-in) per row with no n-sized scratch and
// no sort, so the cost tracks the output size rather than the dimension.
// The sparse backend stands in for the paper's sCPU.
type SparseMatrix struct {
	n    int
	rows [][]int32
	// live lists the non-empty rows, each exactly once, in no particular
	// order: what a product, a union or a Clear walks in place of all n row
	// headers. Set and setRow append a row when it gains its first entry;
	// And, AndNot and Clear, the mutators that can empty one, drop it.
	live []int32
	// cols is the column → rows companion, nil until a product builds it
	// (productRows). It may list rows that do not hold the column but never
	// misses one that does: Set and setRow append to it, And, AndNot and
	// Clear drop it, Clone leaves it behind and Fork shares it, so every
	// holder's writes land in one superset of each holder's entries.
	cols *colIndex
	// walked counts the live rows products walked where cols could have
	// served, until they pay for building it.
	walked int
	nnz    int
	// shared marks a matrix whose row slices another matrix may also hold
	// (it was forked, or is a fork): Set then replaces the row it inserts
	// into instead of shifting it in place. It stays set for good.
	shared bool
	// borrowed marks a matrix whose row list and live list are still the
	// ones its fork (or origin) reads: setRow copies both before the first
	// write, so a fork that is never written costs nothing and the two
	// sides never append into one backing array.
	borrowed bool
}

type sparseBackend struct{}

// Sparse returns the sparse backend (paper: sCPU).
func Sparse() Backend { return sparseBackend{} }

func (sparseBackend) Name() string { return "sparse" }

func (sparseBackend) NewMatrix(n int) Bool {
	return &SparseMatrix{n: n, rows: make([][]int32, n)}
}

// EmptyBytes estimates the row-header storage of an empty n×n sparse
// matrix (24 bytes per row slice header).
func (sparseBackend) EmptyBytes(n int) int64 {
	return 24 * int64(n)
}

// NewSparse returns an empty n×n sparse matrix (convenience for tests and
// direct use).
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
	if len(row) == 0 {
		m.live = append(m.live, int32(i))
	}
	row = append(row, 0)
	copy(row[k+1:], row[k:])
	row[k] = int32(j)
	m.rows[i] = row
	m.nnz++
	if c := m.cols; c != nil {
		c.cols[j] = append(c.cols[j], int32(i))
	}
}

// setRow replaces row i — how every mutator but the in-place Set writes a
// row — first taking private copies of the row list and the live list if a
// fork still reads these ones. A row that gains its first entry joins the
// live list; one that loses its last stays listed until the caller (And,
// AndNot) drops it. A row that grows is listed under its new columns.
func (m *SparseMatrix) setRow(i int, row []int32) {
	if m.borrowed {
		m.rows, m.live = slices.Clone(m.rows), slices.Clone(m.live)
		m.borrowed = false
	}
	old := m.rows[i]
	if len(old) == 0 && len(row) > 0 {
		m.live = append(m.live, int32(i))
	}
	if m.cols != nil && len(row) > len(old) {
		m.cols.list(int32(i), row, old)
	}
	m.nnz += len(row) - len(old)
	m.rows[i] = row
}

// Clear empties the matrix in time proportional to the rows it holds,
// keeping the row list and the live list's capacity for the next fill.
func (m *SparseMatrix) Clear() {
	if m.borrowed {
		// The lists are a fork's to read: leave them, start fresh ones.
		m.rows, m.live, m.borrowed = make([][]int32, m.n), nil, false
	}
	for _, i := range m.live {
		m.rows[i] = nil
	}
	m.live, m.nnz = m.live[:0], 0
	m.cols, m.walked = nil, 0
}

// Nnz returns the number of set entries.
func (m *SparseMatrix) Nnz() int { return m.nnz }

// Bytes estimates the heap bytes of the row storage — 24 bytes per row
// slice header plus 4 bytes per stored column index — and as much again
// for a companion the matrix holds (what other holders listed is theirs).
func (m *SparseMatrix) Bytes() int64 {
	if m.cols != nil {
		return 2 * m.rowBytes()
	}
	return m.rowBytes()
}

// ProductBytes is the companion a product may build (productRows), the size
// of the rows it indexes — nothing once the matrix holds one, or while it
// is empty.
func (m *SparseMatrix) ProductBytes() int64 {
	if m.cols != nil || m.nnz == 0 {
		return 0
	}
	return m.rowBytes()
}

func (m *SparseMatrix) rowBytes() int64 { return 24*int64(m.n) + 4*int64(m.nnz) }

// Grow resizes the matrix to n×n in place, keeping every entry. The CSR
// row list simply gains empty rows, the companion empty columns; column
// indices need no translation.
func (m *SparseMatrix) Grow(n int) {
	if n <= m.n {
		return
	}
	rows := make([][]int32, n)
	copy(rows, m.rows)
	if m.borrowed {
		m.live = slices.Clone(m.live)
	}
	m.rows, m.borrowed = rows, false
	m.n = n
	if c := m.cols; c != nil && len(c.cols) < n {
		c.cols = append(c.cols, make([][]int32, n-len(c.cols))...)
	}
}

// Clone returns an independent copy, without the companion.
func (m *SparseMatrix) Clone() Bool {
	cp := &SparseMatrix{
		n:    m.n,
		rows: make([][]int32, m.n),
		live: slices.Clone(m.live),
		nnz:  m.nnz,
	}
	for _, i := range m.live {
		cp.rows[i] = slices.Clone(m.rows[i])
	}
	return cp
}

// Fork returns a matrix over the same rows in O(1): row slices, row list
// and live list are shared, and both sides are marked so — whichever is
// mutated next copies the lists (O(n), once) before its first write and
// leaves every shared row slice as the other reads it. Both sides append
// to the one companion.
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
	// Equal counts make m's rows all of o's: no other row of o holds a bit.
	for _, i := range m.live {
		if !slices.Equal(m.rows[i], o.rows[i]) {
			return false
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
	for _, i := range o.live {
		if merged, grew := unionSorted(m.rows[i], o.rows[i]); grew {
			m.setRow(int(i), merged)
			changed = true
		}
	}
	return changed
}

// And computes m &= other.
func (m *SparseMatrix) And(other Bool) bool {
	return m.keepRows(mustSparse(other, m.n), intersectSorted)
}

// AndNot computes m &= ¬other.
func (m *SparseMatrix) AndNot(other Bool) bool {
	return m.keepRows(mustSparse(other, m.n), differenceSorted)
}

// keepRows replaces every live row by keep(row, o's row) — a subset of it,
// returned as-is when nothing is dropped — and unlists the rows it emptied.
func (m *SparseMatrix) keepRows(o *SparseMatrix, keep func(a, b []int32) []int32) bool {
	changed := false
	for _, i := range m.live {
		if kept := keep(m.rows[i], o.rows[i]); len(kept) != len(m.rows[i]) {
			m.setRow(int(i), kept)
			changed = true
		}
	}
	if changed {
		m.live = slices.DeleteFunc(m.live, func(i int32) bool { return len(m.rows[i]) == 0 })
		m.cols, m.walked = nil, 0 // dropped bits would stay listed
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

// AddMul computes m |= a × b with merge-based row products over the rows
// productRows picks — a's live rows, or fewer found through a's companion —
// and an empty operand returns at once. A row that grew is written
// straight into m — unless m is one of the operands: then every grown row
// is computed before the first is written, which is what lets m alias a or b.
func (m *SparseMatrix) AddMul(a, b Bool) bool {
	sa := mustSparse(a, m.n)
	sb := mustSparse(b, m.n)
	if sa.nnz == 0 || sb.nnz == 0 {
		return false
	}
	type grownRow struct {
		i    int32
		cols []int32
	}
	aliased := m == sa || m == sb
	var (
		rm      rowMerger
		pending []grownRow
		changed bool
	)
	for _, i := range sa.productRows(sb) {
		grown, grew := unionSorted(m.rows[i], rm.productRow(sa, sb, int(i)))
		if !grew {
			continue
		}
		changed = true
		if aliased {
			pending = append(pending, grownRow{i, grown})
		} else {
			m.setRow(int(i), grown)
		}
	}
	for _, r := range pending {
		m.setRow(int(r.i), r.cols)
	}
	return changed
}

// productRows returns the rows of a that can hold a row of a × b: a's live
// rows, or — when b has fewer live rows than a — the rows a's companion
// lists under b's live rows, if those are fewer still. A listed row a no
// longer holds costs an empty row product; one beyond a's dimension
// (another holder's) is skipped. The candidates are sorted and
// deduplicated in the companion's scratch, valid until a's next product.
//
// The companion is rented before it is bought: a builds it once the live
// rows it walked in this position add up to what building costs, n + nnz.
// A one-shot product never pays; a T_B meeting a thin Δ every pass pays once.
func (a *SparseMatrix) productRows(b *SparseMatrix) []int32 {
	if len(b.live) >= len(a.live) {
		return a.live
	}
	if a.cols == nil {
		if a.walked < a.n+a.nnz {
			a.walked += len(a.live)
			return a.live
		}
		a.cols = a.buildCols()
	}
	c := a.cols
	listed := 0
	for _, k := range b.live {
		if listed += len(c.cols[k]); listed >= len(a.live) {
			return a.live
		}
	}
	cand := c.cand[:0]
	for _, k := range b.live {
		for _, i := range c.cols[k] {
			if int(i) < a.n {
				cand = append(cand, i)
			}
		}
	}
	slices.Sort(cand)
	c.cand = slices.Compact(cand)
	return c.cand
}

// colIndex is a sparse matrix's column → rows companion: cols[j] lists rows
// that hold column j, unordered, maybe more than once (see
// SparseMatrix.cols). cand is productRows' scratch.
type colIndex struct {
	cols [][]int32
	cand []int32
}

// buildCols indexes m's entries by column in O(n + nnz), each column a
// capped window of one backing array, so that appending to one column
// moves it out rather than overrunning the next. The counting pass counts
// in the headers' lengths, over flat: no column is longer than nnz.
func (m *SparseMatrix) buildCols() *colIndex {
	flat := make([]int32, m.nnz)
	cols := make([][]int32, m.n)
	for _, i := range m.live {
		for _, j := range m.rows[i] {
			cols[j] = flat[:len(cols[j])+1]
		}
	}
	off := 0
	for j, list := range cols {
		cols[j] = flat[off : off : off+len(list)]
		off += len(list)
	}
	for _, i := range m.live {
		for _, j := range m.rows[i] {
			cols[j] = append(cols[j], i)
		}
	}
	return &colIndex{cols: cols}
}

// list lists row i under the columns of row beyond old, the row it
// replaces (both sorted, old ⊆ row).
func (c *colIndex) list(i int32, row, old []int32) {
	k := 0
	for _, j := range row {
		if k < len(old) && old[k] == j {
			k++
			continue
		}
		c.cols[j] = append(c.cols[j], i)
	}
}

// rowMerger is the per-product scratch of the merge-based SpGEMM kernel:
// two reusable [][]int32 list buffers plus two ping-pong arenas backing
// the intermediate merge rounds. The zero value is ready to use; capacity
// grows to the working set of the largest row and is then reused, so the
// steady-state kernel allocates nothing: the caller copies what it keeps.
type rowMerger struct {
	cand, next     [][]int32
	arenaA, arenaB []int32
}

// productRow computes row i of a×b as a sorted column list (nil when
// empty) that lives in the merger's scratch or in b itself: it is valid
// until the next call and must be copied, not kept or written. The
// candidate rows b.rows[k] for k ∈ a.rows[i] are merged pairwise in
// balanced rounds — a merge tree of depth log₂(fan-in) — so the cost is
// O(output·log fan-in) with no n-sized scratch and no sort. Each round
// writes into the arena its inputs do NOT occupy; an odd leftover list is
// copied into the round's arena rather than carried by reference, so every
// list read in round r+1 lives in memory written in round r and arena
// writes never alias arena reads.
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
	return cur[0]
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

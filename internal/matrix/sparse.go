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
	n int
	// rows is the row list, nil until the first write (own): a matrix
	// nothing has written costs only this struct, and reads take a nil
	// list for n empty rows. A row may hold capacity past its length: Set and Absorb
	// grow into it in place while the matrix is unshared (growRow).
	rows [][]int32
	// live lists the non-empty rows, each exactly once, in no particular
	// order: what a product, a union or a Clear walks in place of all n row
	// headers. Set, Absorb and setRow append a row when it gains its first
	// entry; And, Absorb (of its argument) and Clear, the mutators that can
	// empty one, drop it.
	live []int32
	// spare is the row storage a Clear kept: rows the next fill writes are
	// capped windows of it (newRow), and once it is full of a larger one.
	// nil until the first Clear, and again after a Fork.
	spare []int32
	// cols is the column → rows companion, nil until a product builds it
	// (productRows). It may list rows that do not hold the column but never
	// misses one that does: Set, Absorb and setRow append to it, And,
	// Absorb (of its argument) and Clear drop it, Clone leaves it behind
	// and Fork shares it, so every holder's writes land in one superset of
	// each holder's entries.
	cols *colIndex
	// walked counts the live rows products walked where cols could have
	// served, until they pay for building it.
	walked int
	nnz    int
	// slack is the headroom growth keeps, Σ cap − len over the rows (every
	// other row is capped at its length). Bytes charges it with the
	// entries.
	slack int
	// shared marks a matrix whose row slices another matrix may also hold
	// (it was forked, or is a fork): Set and Absorb then replace a row they
	// grow, exactly sized, instead of growing it in place. It stays set for
	// good.
	shared bool
	// borrowed marks a matrix whose row list and live list are still the
	// ones its fork (or origin) reads: own copies both before the first
	// write, so a fork that is never written costs nothing and the two
	// sides never append into one backing array.
	borrowed bool
}

type sparseBackend struct{}

// Sparse returns the sparse backend (paper: sCPU).
func Sparse() Backend { return sparseBackend{} }

func (sparseBackend) Name() string { return "sparse" }

func (sparseBackend) NewMatrix(n int) Bool {
	return &SparseMatrix{n: n}
}

// EmptyBytes estimates the row list an n×n sparse matrix allocates at its
// first write (24 bytes per row slice header); before it, the matrix holds
// none.
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

// row returns row i, empty while the matrix has no row list.
func (m *SparseMatrix) row(i int) []int32 {
	if m.rows == nil {
		return nil
	}
	return m.rows[i]
}

// Get reports entry (i, j) by binary search within the row.
func (m *SparseMatrix) Get(i, j int) bool {
	m.check(i, j)
	row := m.row(i)
	k := sort.Search(len(row), func(x int) bool { return row[x] >= int32(j) })
	return k < len(row) && row[k] == int32(j)
}

// Set inserts entry (i, j), keeping the row sorted: the row grows as
// Absorb grows one (grow), in place while the matrix is unshared and the
// row has room.
func (m *SparseMatrix) Set(i, j int) {
	if !m.Get(i, j) {
		m.grow(int32(i), []int32{int32(j)})
	}
}

// own readies the row list for a write: it allocates the list at the
// first, and takes private copies of it and of the live list while a fork
// still reads them.
func (m *SparseMatrix) own() {
	if m.borrowed {
		m.rows, m.live = slices.Clone(m.rows), slices.Clone(m.live)
		m.borrowed = false
	}
	if m.rows == nil {
		m.rows = make([][]int32, m.n)
	}
}

// setRow replaces row i — how every mutator but Set and Absorb writes a
// row of its receiver. A row that gains its first entry joins the live
// list; one that loses its last stays listed until the caller (And,
// Absorb) drops it. A row that grows is listed under its new columns.
func (m *SparseMatrix) setRow(i int, row []int32) {
	m.own()
	old := m.rows[i]
	if len(old) == 0 && len(row) > 0 {
		m.list(int32(i))
	}
	if m.cols != nil && len(row) > len(old) {
		m.cols.list(int32(i), row, old)
	}
	m.nnz += len(row) - len(old)
	m.slack += cap(row) - len(row) - (cap(old) - len(old))
	m.rows[i] = row
}

// grow adds fresh — sorted columns row i lacks — to row i: in place while
// the matrix is unshared and the row has room, otherwise into a new row,
// with headroom unless a fork may read the old one (growRow). The row is
// listed under the fresh columns.
func (m *SparseMatrix) grow(i int32, fresh []int32) {
	m.own()
	old := m.rows[i]
	row := growRow(old, fresh, !m.shared)
	if len(old) == 0 {
		m.list(i)
	}
	if c := m.cols; c != nil {
		for _, j := range fresh {
			c.cols[j] = append(c.cols[j], i)
		}
	}
	m.nnz += len(fresh)
	m.slack += cap(row) - len(row) - (cap(old) - len(old))
	m.rows[i] = row
}

// list appends row i to the live list, doubling the list when it is full:
// append grows a long list by a quarter, copying it every few rows that
// join it, and a closure's T_A gains rows pass after pass.
func (m *SparseMatrix) list(i int32) {
	if len(m.live) == cap(m.live) {
		m.live = slices.Grow(m.live, min(max(len(m.live), 8), m.n-len(m.live)))
	}
	m.live = append(m.live, i)
}

// Clear empties the matrix in time proportional to the rows it holds,
// keeping the row list, the live list's capacity and the spare storage of
// its rows for the next fill: the first Clear starts a spare array the
// size of what the matrix held, later ones reuse it. Rows of the matrix
// taken before a Clear are dead after it: their storage is written again.
// Rows a fork shares are not: Fork drops the spare storage of both sides.
func (m *SparseMatrix) Clear() {
	if m.borrowed {
		// The lists are a fork's to read: leave them, and let the next
		// write start fresh ones.
		m.rows, m.live, m.borrowed = nil, nil, false
	}
	for _, i := range m.live {
		m.rows[i] = nil
	}
	if m.spare == nil {
		m.spare = make([]int32, 0, m.nnz) // non-nil even when empty
	}
	m.spare = m.spare[:0]
	m.live, m.nnz, m.slack = m.live[:0], 0, 0
	m.cols, m.walked = nil, 0
}

// Nnz returns the number of set entries.
func (m *SparseMatrix) Nnz() int { return m.nnz }

// Bytes estimates the heap bytes of the row storage — 24 bytes per row
// slice header, once the row list exists, plus 4 bytes per stored column
// index and per slot of headroom the rows hold — and the size of the
// entries again for a companion the matrix holds (what other holders
// listed is theirs). Spare storage a Clear kept counts only as far as
// rows took it. A matrix nothing has written reports 0.
func (m *SparseMatrix) Bytes() int64 {
	b := 24*int64(len(m.rows)) + 4*int64(m.nnz+m.slack)
	if m.cols != nil {
		b += m.indexBytes()
	}
	return b
}

// ProductBytes is the companion a product may build (productRows), the size
// of the entries it indexes — nothing once the matrix holds one, or while
// it is empty.
func (m *SparseMatrix) ProductBytes() int64 {
	if m.cols != nil || m.nnz == 0 {
		return 0
	}
	return m.indexBytes()
}

// indexBytes is the size of a companion: a list header per column and an
// entry per row it lists.
func (m *SparseMatrix) indexBytes() int64 { return 24*int64(m.n) + 4*int64(m.nnz) }

// Grow resizes the matrix to n×n in place, keeping every entry. The CSR
// row list, if there is one yet, simply gains empty rows, the companion
// empty columns; column indices need no translation.
func (m *SparseMatrix) Grow(n int) {
	if n <= m.n {
		return
	}
	if m.rows != nil {
		rows := make([][]int32, n)
		copy(rows, m.rows)
		m.rows = rows
	}
	if m.borrowed {
		m.live = slices.Clone(m.live)
	}
	m.n, m.borrowed = n, false
	if c := m.cols; c != nil && len(c.cols) < n {
		c.cols = append(c.cols, make([][]int32, n-len(c.cols))...)
	}
}

// Clone returns an independent copy, without the companion, its rows
// capped windows of one array; an empty matrix's copy holds no row list.
func (m *SparseMatrix) Clone() Bool {
	cp := &SparseMatrix{n: m.n, live: slices.Clone(m.live), nnz: m.nnz}
	if m.nnz == 0 {
		return cp
	}
	cp.rows = make([][]int32, m.n)
	flat := make([]int32, 0, m.nnz)
	for _, i := range m.live {
		flat = append(flat, m.rows[i]...)
		cp.rows[i] = flat[len(flat)-len(m.rows[i]) : len(flat) : len(flat)]
	}
	return cp
}

// Fork returns a matrix over the same rows in O(1): row slices, row list
// and live list are shared, and both sides are marked so — whichever is
// mutated next copies the lists (O(n), once) before its first write and
// leaves every shared row slice as the other reads it: neither grows a row
// into the room it holds, which both would write. Both sides append to the
// one companion; neither keeps spare storage, for the same reason.
func (m *SparseMatrix) Fork() Bool {
	m.shared, m.borrowed, m.spare = true, true, nil
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
	for _, j := range m.row(i) {
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
		if merged, grew := m.union(m.row(int(i)), o.rows[i]); grew {
			m.setRow(int(i), merged)
			changed = true
		}
	}
	return changed
}

// And computes m &= other, and unlists the rows it emptied.
func (m *SparseMatrix) And(other Bool) bool {
	o := mustSparse(other, m.n)
	changed := false
	for _, i := range m.live {
		if kept := intersectSorted(m.rows[i], o.row(int(i))); len(kept) != len(m.rows[i]) {
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

// Absorb computes m |= next and leaves in next only the bits that were new
// to m; it reports whether m grew — whether next still holds a bit. Each
// row of next is trimmed to what m's row lacks, in place unless next
// shares it with a fork (subtractRow), and m's row grows by what is left
// (grow): in place while m is unshared and the row has room — the rows of
// a closure's T_A gain a few bits a pass — otherwise into a new row, with
// headroom unless a fork may read the old one. next must not be m.
func (m *SparseMatrix) Absorb(next Bool) bool {
	x := mustSparse(next, m.n)
	if x == m {
		panic("matrix: Absorb of a matrix into itself")
	}
	dropped := false
	for _, i := range x.live {
		row := x.rows[i]
		if x.shared {
			row = slices.Clone(row)
		}
		fresh := subtractRow(m.row(int(i)), row)
		if len(fresh) > 0 {
			m.grow(i, fresh)
		}
		if len(fresh) != len(x.rows[i]) {
			x.setRow(int(i), slices.Clip(fresh)) // the trimmed tail is no headroom
			dropped = true
		}
	}
	if dropped {
		x.live = slices.DeleteFunc(x.live, func(i int32) bool { return len(x.rows[i]) == 0 })
		x.cols, x.walked = nil, 0
	}
	return x.nnz > 0
}

// subtractRow writes x \ t over x's own prefix and returns it (t and x
// sorted unique slices).
func subtractRow(t, x []int32) []int32 {
	if len(t) == 0 {
		return x
	}
	w, ti := 0, 0
	for _, c := range x {
		for ti < len(t) && t[ti] < c {
			ti++
		}
		if ti < len(t) && t[ti] == c {
			ti++
			continue
		}
		x[w] = c
		w++
	}
	return x[:w]
}

// growRow returns t ∪ fresh for sorted unique t and fresh, fresh disjoint
// from t, merged from the back. An owned t — one no other matrix may read
// — grows in place when its capacity holds the union, and otherwise moves
// to a new slice with append's headroom; one that is not owned moves to an
// exactly sized copy and is left as it was.
func growRow(t, fresh []int32, owned bool) []int32 {
	k := len(t) + len(fresh)
	var row []int32
	switch {
	case owned && cap(t) >= k:
		row = t[:k]
	case owned:
		row = append(t[:len(t):len(t)], fresh...) // the merge writes over fresh's copy
	default:
		row = append(make([]int32, 0, k), t...)[:k]
	}
	i, j := len(t)-1, len(fresh)-1
	for w := k - 1; j >= 0; w-- {
		if i >= 0 && row[i] > fresh[j] {
			row[w] = row[i]
			i--
		} else {
			row[w] = fresh[j]
			j--
		}
	}
	return row
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
		grown, grew := m.union(m.row(int(i)), rm.productRow(sa, sb, int(i)))
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

// buildSparse is Build on the sparse backend: one pass counts the entries,
// one counts each row's in its header's length over the backing array and
// lists the rows it reaches, one places them; then each row is sorted and
// its repeats dropped. Only listed rows are visited after the counting, so
// the cost past the header allocation is the entries', not n's. The live
// list is sized for the most rows the entries can fill.
func buildSparse(n int, each func(emit func(i, j int))) *SparseMatrix {
	m := &SparseMatrix{n: n, rows: make([][]int32, n)}
	total := 0
	each(func(i, j int) {
		m.check(i, j)
		total++
	})
	flat, rows := make([]int32, total), m.rows
	m.live = make([]int32, 0, min(total, n))
	each(func(i, _ int) {
		if len(rows[i]) == 0 {
			m.live = append(m.live, int32(i))
		}
		rows[i] = flat[:len(rows[i])+1]
	})
	off := 0
	for _, i := range m.live {
		k := len(rows[i])
		rows[i] = flat[off:off]
		off += k
	}
	each(func(i, j int) { rows[i] = append(rows[i], int32(j)) })
	for _, i := range m.live {
		r := rows[i]
		slices.Sort(r)
		r = slices.Compact(r)
		rows[i] = r[:len(r):len(r)]
		m.nnz += len(r)
	}
	return m
}

// csrSparse is FromCSR on the sparse backend. One flat pass over cols
// counts columns out of range and places where a column does not exceed
// the one before; a pass over the rows checks them, cuts each out of cols
// and discounts the places that are a row's start, so that what is left
// counts columns out of order within a row. An empty input makes a matrix
// with no row list, as NewMatrix does.
func csrSparse(n int, live, ends, cols []int32) (*SparseMatrix, error) {
	m := &SparseMatrix{n: n, live: live, nnz: len(cols)}
	switch {
	case len(live) != len(ends):
		return nil, fmt.Errorf("matrix: %d rows with %d ends", len(live), len(ends))
	case len(live) == 0 && len(cols) > 0:
		return nil, fmt.Errorf("matrix: %d columns in no row", len(cols))
	case len(live) == 0:
		return m, nil
	case int(ends[len(ends)-1]) != len(cols):
		return nil, fmt.Errorf("matrix: rows hold %d entries, %d columns given", ends[len(ends)-1], len(cols))
	}
	outside, unordered, last := 0, 0, int32(-1)
	for _, j := range cols {
		if uint32(j) >= uint32(n) {
			outside++
		}
		if j <= last {
			unordered++
		}
		last = j
	}
	if outside > 0 {
		return nil, fmt.Errorf("matrix: %d columns out of range for %d nodes", outside, n)
	}
	rows := make([][]int32, n)
	prev, start := int32(-1), int32(0)
	for k, i := range live {
		end := ends[k]
		switch {
		case i <= prev || int(i) >= n:
			return nil, fmt.Errorf("matrix: row %d after row %d, out of order or out of range for %d nodes", i, prev, n)
		case end <= start || int(end) > len(cols):
			return nil, fmt.Errorf("matrix: row %d ends at %d, from %d of %d columns", i, end, start, len(cols))
		}
		if start > 0 && cols[start] <= cols[start-1] {
			unordered--
		}
		rows[i] = cols[start:end:end]
		prev, start = i, end
	}
	if unordered > 0 {
		return nil, fmt.Errorf("matrix: %d columns out of order or repeated within their row", unordered)
	}
	m.rows = rows
	return m, nil
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

// union merges two sorted unique slices; grew reports whether the result
// has entries beyond a. When nothing is added, a is returned as-is;
// otherwise the result is a new row of m (newRow).
func (m *SparseMatrix) union(a, b []int32) (merged []int32, grew bool) {
	if len(b) == 0 {
		return a, false
	}
	if len(a) == 0 {
		out := m.newRow(len(b))
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
	out := m.newRow(len(a) + extra)[:0]
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

// newRow returns a row of k entries for the caller to fill: a capped window
// of the spare storage a Clear kept — a larger spare array once it is
// full — or, before any Clear, a fresh slice.
func (m *SparseMatrix) newRow(k int) []int32 {
	s := m.spare
	if s == nil {
		return make([]int32, k)
	}
	if cap(s)-len(s) < k {
		s = make([]int32, 0, max(2*cap(s), k))
	}
	m.spare = s[:len(s)+k]
	return s[len(s) : len(s)+k : len(s)+k]
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

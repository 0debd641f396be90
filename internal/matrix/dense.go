package matrix

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// DenseMatrix is a bit-packed n×n Boolean matrix: row i occupies words
// [i*stride, (i+1)*stride) with 64 columns per word. Multiplication is the
// classic bitset kernel — for every set a[i][k], OR row k of b into row i of
// the result — which runs at 64 columns per machine instruction. This is
// the same data-parallel inner loop a dense GPU kernel executes, which is
// why DenseParallel serves as the paper's dGPU stand-in.
type DenseMatrix struct {
	n        int
	stride   int // words per row
	words    []uint64
	parallel bool
	workers  int
}

type denseBackend struct {
	parallel bool
	workers  int
}

// Dense returns the serial dense backend.
func Dense() Backend { return denseBackend{} }

// DenseParallel returns the row-parallel dense backend; workers ≤ 0 means
// GOMAXPROCS.
func DenseParallel(workers int) Backend {
	return denseBackend{parallel: true, workers: workers}
}

func (d denseBackend) Name() string {
	if d.parallel {
		return "dense-parallel"
	}
	return "dense"
}

func (d denseBackend) NewMatrix(n int) Bool {
	return &DenseMatrix{
		n:        n,
		stride:   (n + 63) / 64,
		words:    make([]uint64, n*((n+63)/64)),
		parallel: d.parallel,
		workers:  d.workers,
	}
}

// EmptyBytes estimates the word storage of an empty n×n bit-packed matrix:
// dense matrices pay their full footprint up front.
func (d denseBackend) EmptyBytes(n int) int64 {
	return 8 * int64(n) * int64((n+63)/64)
}

// NewDense returns an empty serial n×n dense matrix (convenience for tests
// and direct use).
func NewDense(n int) *DenseMatrix {
	return Dense().NewMatrix(n).(*DenseMatrix)
}

// Dim returns the matrix dimension.
func (m *DenseMatrix) Dim() int { return m.n }

func (m *DenseMatrix) check(i, j int) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %d×%d", i, j, m.n, m.n))
	}
}

// Get reports entry (i, j).
func (m *DenseMatrix) Get(i, j int) bool {
	m.check(i, j)
	return m.words[i*m.stride+j/64]&(1<<(uint(j)%64)) != 0
}

// Set sets entry (i, j).
func (m *DenseMatrix) Set(i, j int) {
	m.check(i, j)
	m.words[i*m.stride+j/64] |= 1 << (uint(j) % 64)
}

// Bytes estimates the heap bytes of the word storage. Density does not
// matter: a dense matrix pays its full footprint at allocation time.
func (m *DenseMatrix) Bytes() int64 {
	return 8 * int64(len(m.words))
}

// Nnz counts set entries.
func (m *DenseMatrix) Nnz() int {
	total := 0
	for _, w := range m.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Grow resizes the matrix to n×n in place, keeping every entry. The words
// are re-packed row by row because the stride (words per row) changes with
// the dimension.
func (m *DenseMatrix) Grow(n int) {
	if n <= m.n {
		return
	}
	stride := (n + 63) / 64
	words := make([]uint64, n*stride)
	for i := 0; i < m.n; i++ {
		copy(words[i*stride:i*stride+m.stride], m.words[i*m.stride:(i+1)*m.stride])
	}
	m.n, m.stride, m.words = n, stride, words
}

// Clone returns an independent copy.
func (m *DenseMatrix) Clone() Bool {
	cp := *m
	cp.words = make([]uint64, len(m.words))
	copy(cp.words, m.words)
	return &cp
}

// Fork is Clone: the bit-packed words are edited in place by every
// mutator, so a dense fork shares nothing with its origin.
func (m *DenseMatrix) Fork() Bool { return m.Clone() }

// Or computes m |= other.
func (m *DenseMatrix) Or(other Bool) bool {
	o := mustDense(other, m.n)
	changed := false
	for i, w := range o.words {
		if nw := m.words[i] | w; nw != m.words[i] {
			m.words[i] = nw
			changed = true
		}
	}
	return changed
}

// And computes m &= other.
func (m *DenseMatrix) And(other Bool) bool {
	o := mustDense(other, m.n)
	changed := false
	for i, w := range o.words {
		if nw := m.words[i] & w; nw != m.words[i] {
			m.words[i] = nw
			changed = true
		}
	}
	return changed
}

// AndNot computes m &= ¬other.
func (m *DenseMatrix) AndNot(other Bool) bool {
	o := mustDense(other, m.n)
	changed := false
	for i, w := range o.words {
		if nw := m.words[i] &^ w; nw != m.words[i] {
			m.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Equal reports entry-wise equality.
func (m *DenseMatrix) Equal(other Bool) bool {
	o := mustDense(other, m.n)
	for i, w := range o.words {
		if m.words[i] != w {
			return false
		}
	}
	return true
}

// Range iterates set entries in row-major order.
func (m *DenseMatrix) Range(fn func(i, j int) bool) {
	for i := 0; i < m.n; i++ {
		row := m.words[i*m.stride : (i+1)*m.stride]
		for wi, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				j := wi*64 + b
				if !fn(i, j) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// RangeRow iterates the set entries of row i in column order.
func (m *DenseMatrix) RangeRow(i int, fn func(j int) bool) bool {
	m.check(i, 0)
	for wi, w := range m.words[i*m.stride : (i+1)*m.stride] {
		for w != 0 {
			if !fn(wi*64 + bits.TrailingZeros64(w)) {
				return false
			}
			w &= w - 1
		}
	}
	return true
}

// AddMul computes m |= a × b. The product is accumulated into a scratch
// buffer first, so m may alias a or b.
func (m *DenseMatrix) AddMul(a, b Bool) bool {
	return m.addMul(a, b)
}

// AddMulRows is AddMul restricted to the masked rows: only rows i with
// rows[i] set are multiplied and merged. Scratch space and the merge scan
// are sized to the masked rows, not the whole matrix, so a small frontier
// pays for its own rows only.
func (m *DenseMatrix) AddMulRows(a, b Bool, rows []bool) bool {
	if len(rows) != m.n {
		panic(fmt.Sprintf("matrix: row mask length %d for %d×%d", len(rows), m.n, m.n))
	}
	da := mustDense(a, m.n)
	db := mustDense(b, m.n)
	idx := make([]int, 0, len(rows))
	for i, on := range rows {
		if on {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return false
	}
	stride := m.stride
	prod := make([]uint64, len(idx)*stride)
	compute := func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			mulRowInto(da, db, idx[ri], prod[ri*stride:(ri+1)*stride])
		}
	}
	if m.parallel {
		m.parallelRows(len(idx), compute)
	} else {
		compute(0, len(idx))
	}
	changed := false
	for ri, i := range idx {
		orow := prod[ri*stride : (ri+1)*stride]
		mrow := m.words[i*stride : (i+1)*stride]
		for x, w := range orow {
			if nw := mrow[x] | w; nw != mrow[x] {
				mrow[x] = nw
				changed = true
			}
		}
	}
	return changed
}

// addMul is the full (unmasked) AddMul kernel.
func (m *DenseMatrix) addMul(a, b Bool) bool {
	da := mustDense(a, m.n)
	db := mustDense(b, m.n)
	prod := make([]uint64, len(m.words))
	compute := func(lo, hi int) { mulRows(da, db, prod, lo, hi) }
	if m.parallel {
		m.parallelRows(m.n, compute)
	} else {
		compute(0, m.n)
	}
	changed := false
	for i, w := range prod {
		if nw := m.words[i] | w; nw != m.words[i] {
			m.words[i] = nw
			changed = true
		}
	}
	return changed
}

// mulRowInto computes row i of a×b into the given stride-sized word slice.
func mulRowInto(a, b *DenseMatrix, i int, orow []uint64) {
	stride := a.stride
	arow := a.words[i*stride : (i+1)*stride]
	for wi, w := range arow {
		for w != 0 {
			k := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			brow := b.words[k*stride : (k+1)*stride]
			for x, bw := range brow {
				orow[x] |= bw
			}
		}
	}
}

// mulRows computes rows [lo, hi) of a×b into prod.
func mulRows(a, b *DenseMatrix, prod []uint64, lo, hi int) {
	stride := a.stride
	for i := lo; i < hi; i++ {
		mulRowInto(a, b, i, prod[i*stride:(i+1)*stride])
	}
}

// parallelRows splits [0, n) across the backend's workers and runs compute
// on each chunk.
func (m *DenseMatrix) parallelRows(n int, compute func(lo, hi int)) {
	workers := m.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		compute(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			compute(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Transpose returns the transposed matrix (same backend flavour).
func (m *DenseMatrix) Transpose() *DenseMatrix {
	t := &DenseMatrix{
		n:        m.n,
		stride:   m.stride,
		words:    make([]uint64, len(m.words)),
		parallel: m.parallel,
		workers:  m.workers,
	}
	m.Range(func(i, j int) bool {
		t.words[j*t.stride+i/64] |= 1 << (uint(i) % 64)
		return true
	})
	return t
}

func mustDense(b Bool, n int) *DenseMatrix {
	d, ok := b.(*DenseMatrix)
	if !ok {
		panic(fmt.Sprintf("matrix: mixed backends: expected *DenseMatrix, got %T", b))
	}
	if d.n != n {
		panic(fmt.Sprintf("matrix: dimension mismatch: %d vs %d", d.n, n))
	}
	return d
}

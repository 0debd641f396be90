package matrix

import (
	"fmt"
	"math/bits"
)

// DenseMatrix is a bit-packed n×n Boolean matrix: row i occupies words
// [i*stride, (i+1)*stride) with 64 columns per word. Multiplication is the
// classic bitset kernel — for every set a[i][k], OR row k of b into row i of
// the result — which runs at 64 columns per machine instruction. This is
// the same data-parallel inner loop a dense GPU kernel executes, which is
// why the dense backend stands in for the paper's dGPU: the point of that
// column is the representation, not the device.
type DenseMatrix struct {
	n      int
	stride int // words per row
	words  []uint64
}

type denseBackend struct{}

// Dense returns the dense backend (paper: dGPU).
func Dense() Backend { return denseBackend{} }

func (denseBackend) Name() string { return "dense" }

func (denseBackend) NewMatrix(n int) Bool {
	stride := (n + 63) / 64
	return &DenseMatrix{n: n, stride: stride, words: make([]uint64, n*stride)}
}

// EmptyBytes estimates the word storage of an empty n×n bit-packed matrix:
// dense matrices pay their full footprint up front.
func (denseBackend) EmptyBytes(n int) int64 {
	return 8 * int64(n) * int64((n+63)/64)
}

// NewDense returns an empty n×n dense matrix (convenience for tests and
// direct use).
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

// ProductBytes is 0: a dense product allocates nothing beside its operands.
func (m *DenseMatrix) ProductBytes() int64 { return 0 }

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

// Clear zeroes the bitmap in place.
func (m *DenseMatrix) Clear() { clear(m.words) }

// AddMul computes m |= a × b, ORing product rows straight into m — unless
// m is one of the operands: then the product is accumulated into a scratch
// bitmap first, which is what lets m alias a or b. Rows of b that hold no
// bit are found once, up front, and never ORed; if there are none the
// product is empty and nothing else runs.
func (m *DenseMatrix) AddMul(a, b Bool) bool {
	da := mustDense(a, m.n)
	db := mustDense(b, m.n)
	stride := m.stride
	// bRows has bit k set iff row k of b holds a bit: ANDed into a word of
	// a's row i it leaves exactly the k whose b-row contributes to row i.
	bRows := make([]uint64, stride)
	empty := true
	for k := 0; k < m.n; k++ {
		for _, w := range db.words[k*stride : (k+1)*stride] {
			if w != 0 {
				bRows[k/64] |= 1 << (uint(k) % 64)
				empty = false
				break
			}
		}
	}
	if empty {
		return false
	}
	if m != da && m != db {
		return mulRows(da, db, bRows, m.words)
	}
	prod := make([]uint64, len(m.words))
	if !mulRows(da, db, bRows, prod) {
		return false
	}
	return m.Or(&DenseMatrix{n: m.n, stride: stride, words: prod})
}

// mulRows ORs a×b into dst, a bitmap of a's shape, and reports whether
// that set a bit; bRows masks out the k whose row of b is empty.
func mulRows(a, b *DenseMatrix, bRows, dst []uint64) bool {
	stride := a.stride
	var grew uint64
	for i := range a.n {
		orow := dst[i*stride : (i+1)*stride]
		for wi, w := range a.words[i*stride : (i+1)*stride] {
			for w &= bRows[wi]; w != 0; w &= w - 1 {
				k := wi*64 + bits.TrailingZeros64(w)
				for x, bw := range b.words[k*stride : (k+1)*stride] {
					grew |= bw &^ orow[x]
					orow[x] |= bw
				}
			}
		}
	}
	return grew != 0
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

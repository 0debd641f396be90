package matrix

import (
	"math/rand"
	"slices"
	"testing"
)

// thinGrid returns an n×n grid of at most k random bits — a frontier Δ's
// shape — with at least one.
func thinGrid(rng *rand.Rand, n, k int) [][]bool {
	g := growGrid(nil, n)
	for k = max(k, 1); k > 0; k-- {
		g[rng.Intn(n)][rng.Intn(n)] = true
	}
	return g
}

// TestAddMulThroughColumnIndex: a left operand multiplied by thinner right
// operands, product after product, walks its live rows until they add up to
// what building its column index costs (n + nnz) and builds it in the next
// such product. From then on the rows it picks through the index include
// every row the product can reach, and the product equals the grid product —
// into a fresh matrix, into one already holding bits, and into the left
// operand itself.
func TestAddMulThroughColumnIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	served := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(80)
		ag := randGrid(rng, n, 0.02+0.3*rng.Float64())
		a := NewSparse(n)
		fill(a, ag)
		if len(a.live) < 2 {
			continue
		}
		thin := func() ([][]bool, *SparseMatrix) {
			bg := thinGrid(rng, n, rng.Intn(len(a.live)))
			b := NewSparse(n)
			fill(b, bg)
			return bg, b
		}

		for walked := 0; a.cols == nil; walked += len(a.live) {
			bg, b := thin()
			m := NewSparse(n)
			m.AddMul(a, b)
			if !equalGrid(toBool(m), refMul(ag, bg)) {
				t.Fatalf("trial %d: product walking the live rows differs from the grid", trial)
			}
			if built := a.cols != nil; built != (walked >= n+a.nnz) {
				t.Fatalf("trial %d: column index built=%v after %d walked rows, building costs %d",
					trial, built, walked, n+a.nnz)
			}
		}
		checkColumnIndex(t, a)

		for product := 0; product < 8; product++ {
			bg, b := thin()
			want := refMul(ag, bg)
			rows := a.productRows(b)
			for i := range want {
				if slices.Contains(want[i], true) && !slices.Contains(rows, int32(i)) {
					t.Fatalf("trial %d: row %d of the product is not among the rows picked %v", trial, i, rows)
				}
			}
			if len(rows) < len(a.live) {
				served++
			}
			pre := randGrid(rng, n, 0.05)
			m := NewSparse(n)
			fill(m, pre)
			m.AddMul(a, b)
			if !equalGrid(toBool(m), orGrid(pre, want)) {
				t.Fatalf("trial %d: product through the column index differs from the grid", trial)
			}
		}

		bg, b := thin()
		a.AddMul(a, b)
		ag = orGrid(ag, refMul(ag, bg))
		if !equalGrid(toBool(a), ag) {
			t.Fatalf("trial %d: a |= a × b through the column index differs from the grid", trial)
		}
		checkColumnIndex(t, a)
	}
	if served == 0 {
		t.Fatal("no product was driven through a column index")
	}
}

// TestColumnIndexAcrossForks: a fork shares its origin's column index, and
// the two sides write to it in turn — the fork grown past the origin's
// dimension, so the index lists rows the origin does not have. Each side
// keeps the invariant (every entry listed under its column), and products
// driven through either side's index equal the grid product: the other
// side's rows cost at most an empty row, and those beyond a side's own
// dimension are skipped.
func TestColumnIndexAcrossForks(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(40)
		origin := NewSparse(n)
		og := randGrid(rng, n, 0.2)
		fill(origin, og)
		if origin.nnz == 0 {
			continue
		}
		origin.cols = origin.buildCols()
		fork := origin.Fork().(*SparseMatrix)
		if fork.cols != origin.cols {
			t.Fatalf("trial %d: the fork does not share the origin's column index", trial)
		}
		grown := n + 1 + rng.Intn(12)
		fork.Grow(grown)
		fg := growGrid(og, grown)
		set := func(m *SparseMatrix, g [][]bool, dim, k int) {
			for ; k > 0; k-- {
				i, j := rng.Intn(dim), rng.Intn(dim)
				m.Set(i, j)
				g[i][j] = true
			}
		}
		// In turn: the fork (rows past the origin's n included), the origin,
		// then the fork again, through Set and through Or's row replacement.
		set(fork, fg, grown, 1+rng.Intn(2*grown))
		set(origin, og, n, 1+rng.Intn(n))
		extra := NewSparse(grown)
		eg := randGrid(rng, grown, 0.1)
		fill(extra, eg)
		fork.Or(extra)
		fg = orGrid(fg, eg)
		if fork.cols != origin.cols {
			t.Fatalf("trial %d: a write detached the shared column index", trial)
		}

		for _, side := range []struct {
			name string
			m    *SparseMatrix
			g    [][]bool
		}{{"origin", origin, og}, {"fork", fork, fg}} {
			if !equalGrid(toBool(side.m), side.g) {
				t.Fatalf("trial %d: the %s differs from its grid", trial, side.name)
			}
			checkColumnIndex(t, side.m)
			dim := side.m.Dim()
			bg := thinGrid(rng, dim, 2)
			b := NewSparse(dim)
			fill(b, bg)
			m := NewSparse(dim)
			m.AddMul(side.m, b)
			if !equalGrid(toBool(m), refMul(side.g, bg)) {
				t.Fatalf("trial %d: a product driven by the %s differs from the grid", trial, side.name)
			}
		}
	}
}

// TestInPlaceGrowthListsColumns: a row Absorb grows in place, into the room
// an earlier growth left it, is listed under each of its fresh columns in
// the matrix's column index, so products driven through the index still
// reach it.
func TestInPlaceGrowthListsColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	inPlace := 0
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(40)
		m, g, ok := grownWithRoom(rng, n)
		if !ok {
			t.Fatalf("trial %d: Absorb left no row with room: not the matrix this test needs", trial)
		}
		m.cols = m.buildCols()
		type held struct {
			first *int32
			n     int
		}
		storage := map[int32]held{}
		for _, i := range m.live {
			if cap(m.rows[i]) > len(m.rows[i]) {
				storage[i] = held{&m.rows[i][0], len(m.rows[i])}
			}
		}
		xg := thinGrid(rng, n, 2*n)
		x := NewSparse(n)
		fill(x, xg)
		m.Absorb(x)
		g = orGrid(g, xg)
		for i, h := range storage {
			if &m.rows[i][0] == h.first && len(m.rows[i]) > h.n {
				inPlace++
			}
		}
		if !equalGrid(toBool(m), g) {
			t.Fatalf("trial %d: the grown matrix differs from its grid", trial)
		}
		checkColumnIndex(t, m)
		bg := thinGrid(rng, n, 2)
		b := NewSparse(n)
		fill(b, bg)
		prod := NewSparse(n)
		prod.AddMul(m, b)
		if !equalGrid(toBool(prod), refMul(g, bg)) {
			t.Fatalf("trial %d: a product through the column index misses rows grown in place", trial)
		}
	}
	if inPlace == 0 {
		t.Fatal("no row grew in place: the test is vacuous")
	}
}

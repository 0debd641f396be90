package matrix

import (
	"math/rand"
	"strings"
	"testing"
)

// gridEntries returns a grid's set entries in row-major order.
func gridEntries(grid [][]bool) []Pair {
	var out []Pair
	for i, row := range grid {
		for j, on := range row {
			if on {
				out = append(out, Pair{i, j})
			}
		}
	}
	return out
}

// csr returns row-major pairs in FromCSR's form.
func csr(pairs []Pair) (live, ends, cols []int32) {
	for k, p := range pairs {
		if k == 0 || p.I != pairs[k-1].I {
			live, ends = append(live, int32(p.I)), append(ends, 0)
		}
		cols = append(cols, int32(p.J))
		ends[len(ends)-1] = int32(len(cols))
	}
	return live, ends, cols
}

// TestBulkRowsAreCapped: a matrix made in bulk — Build (entries in any
// order, some repeated), FromCSR (rows adopted from one column array) and
// Clone — keeps its sparse rows as windows of one array. Set on each row in turn, at its end where an
// in-place append would run into the next row's window, must change that
// row only.
func TestBulkRowsAreCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, be := range allBackends() {
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(30)
			grid := randGrid(rng, n, 0.3)
			pairs := gridEntries(grid)
			built := Build(be, n, func(emit func(i, j int)) {
				for k := len(pairs) - 1; k >= 0; k-- {
					emit(pairs[k].I, pairs[k].J)
					if k%3 == 0 {
						emit(pairs[k].I, pairs[k].J)
					}
				}
			})
			live, ends, cols := csr(pairs)
			adopted, err := FromCSR(be, n, live, ends, cols)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range map[string]Bool{"Build": built, "FromCSR": adopted, "Clone": built.Clone()} {
				want := growGrid(grid, n)
				if !equalGrid(toBool(m), want) || m.Nnz() != len(pairs) {
					t.Fatalf("%s %s: holds %v (nnz %d), want %v", be.Name(), name, toBool(m), m.Nnz(), want)
				}
				if sm, ok := m.(*SparseMatrix); ok {
					checkLiveRows(t, sm)
				}
				for i := range n {
					j := n - 1
					if i%2 == 1 {
						j = rng.Intn(n)
					}
					m.Set(i, j)
					want[i][j] = true
					if !equalGrid(toBool(m), want) {
						t.Fatalf("%s %s: Set(%d,%d) changed another row:\ngot  %v\nwant %v", be.Name(), name, i, j, toBool(m), want)
					}
				}
			}
		}
	}
}

// TestFromCSRRejects: FromCSR takes rows in increasing order, each
// non-empty and in range, ending where the columns do, and columns in
// increasing order within a row, each in range.
func TestFromCSRRejects(t *testing.T) {
	for _, be := range allBackends() {
		for _, c := range []struct {
			name             string
			live, ends, cols []int32
			want             string
		}{
			{"rows out of order", []int32{1, 0}, []int32{1, 2}, []int32{0, 3}, "out of order"},
			{"row repeated", []int32{2, 2}, []int32{1, 2}, []int32{0, 3}, "out of order"},
			{"row out of range", []int32{0, 4}, []int32{1, 2}, []int32{0, 3}, "out of range"},
			{"empty row", []int32{0, 1}, []int32{1, 1}, []int32{0}, "ends at"},
			{"rows hold fewer entries", []int32{0}, []int32{1}, []int32{0, 1}, "hold 1 entries"},
			{"rows hold more entries", []int32{0, 1}, []int32{1, 3}, []int32{0, 1}, "hold 3 entries"},
			{"columns out of order", []int32{0}, []int32{2}, []int32{2, 1}, "out of order"},
			{"column repeated", []int32{0, 2}, []int32{1, 3}, []int32{1, 2, 2}, "repeated"},
			{"column out of range", []int32{0}, []int32{2}, []int32{1, 4}, "out of range"},
			{"negative column", []int32{0}, []int32{1}, []int32{-1}, "out of range"},
			{"columns in no row", nil, nil, []int32{0}, "no row"},
			{"ends missing", []int32{0, 1}, []int32{2}, []int32{0, 1}, "2 rows with 1 ends"},
		} {
			if _, err := FromCSR(be, 4, c.live, c.ends, c.cols); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %s: err = %v, want %q", be.Name(), c.name, err, c.want)
			}
		}
	}
}

// TestClearedStorageIsNotShared: a cleared sparse matrix writes its next
// fill over the storage of the rows it held, so no other matrix may keep
// one of those rows — Absorb into an empty row copies it, and so do Or
// and Clone — and no fork may append into the same storage. Each case
// fills a matrix x twice across a Clear and checks that what took x's
// first rows still holds them.
func TestClearedStorageIsNotShared(t *testing.T) {
	const n = 8
	first, second, third := NewSparse(n), NewSparse(n), NewSparse(n)
	for i := range n {
		first.Set(i, i)
		second.Set(i, (i+1)%n)
		second.Set(i, (i+3)%n)
		third.Set(i, (i+5)%n)
	}
	filled := func() *SparseMatrix {
		x := NewSparse(n)
		x.Clear() // from here on its rows go into storage Clear keeps
		x.Or(first)
		return x
	}
	refill := func(x Bool) {
		x.Clear()
		x.Or(second)
	}
	for name, took := range map[string]func(x Bool) Bool{
		"Absorb": func(x Bool) Bool {
			m := NewSparse(n)
			m.Absorb(x)
			return m
		},
		"Or": func(x Bool) Bool {
			m := NewSparse(n)
			m.Or(x)
			return m
		},
		"Clone": func(x Bool) Bool { return x.Clone() },
		"AddMul": func(x Bool) Bool {
			m := NewSparse(n)
			m.AddMul(first, x)
			return m
		},
	} {
		x := filled()
		m := took(x)
		refill(x)
		if !m.Equal(first) {
			t.Errorf("%s: a matrix that took a cleared matrix's rows changed when it was refilled: %v", name, toBool(m))
		}
	}
	// Both sides of a fork write rows after it: neither may land in the
	// other's storage.
	x := filled()
	refill(x)
	f := x.Fork()
	x.Or(first)
	f.Or(third)
	wantX, wantF := second.Clone(), second.Clone()
	wantX.Or(first)
	wantF.Or(third)
	if !x.Equal(wantX) || !f.Equal(wantF) {
		t.Errorf("the two sides of a fork wrote into one storage:\norigin %v\nfork   %v", toBool(x), toBool(f))
	}
}

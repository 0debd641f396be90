package matrix

import (
	"math/rand"
	"slices"
	"testing"
)

// The matrix model: a few matrices of one backend driven through a program
// of mutators — with every aliasing the interface allows and forks on either
// side, generation after generation — and compared, entry for entry after
// every step, with plain [][]bool grids put through the same program. It is
// what the live-row list of the sparse backends rests on: a row that is
// listed twice, not listed, or listed in a backing array a fork also appends
// to shows up here as a wrong entry, a wrong Nnz or a broken list.
//
// A program is a byte string, so the same interpreter serves the seeded
// TestMatrixModel and the coverage-guided FuzzMatrixModel:
//
//	go test -run='^$' -fuzz=FuzzMatrixModel -fuzztime=15s ./internal/matrix

// program hands out the bytes of a model run; an exhausted program reads 0.
type program struct {
	data []byte
	pos  int
}

func (p *program) done() bool { return p.pos >= len(p.data) }

// next returns the next byte reduced to [0, n).
func (p *program) next(n int) int {
	if p.done() {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return int(b) % n
}

// modelSlot is a matrix and the grid it must equal.
type modelSlot struct {
	m Bool
	g [][]bool
}

// equalGrid is reflect.DeepEqual for grids, without the reflection: the
// model compares every matrix after every step.
func equalGrid(a, b [][]bool) bool {
	return slices.EqualFunc(a, b, func(x, y []bool) bool { return slices.Equal(x, y) })
}

// countGrid returns the number of set entries of a grid.
func countGrid(g [][]bool) int {
	count := 0
	for _, row := range g {
		for _, on := range row {
			if on {
				count++
			}
		}
	}
	return count
}

// growGrid returns a copy of g padded with empty rows and columns to n×n.
func growGrid(g [][]bool, n int) [][]bool {
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, n)
		if i < len(g) {
			copy(out[i], g[i])
		}
	}
	return out
}

// maxModelDim keeps the per-step comparison cheap while letting Grow carry
// a dense matrix across the 64-column word boundary.
const maxModelDim = 72

// runMatrixModel interprets one program on one backend.
func runMatrixModel(t *testing.T, be Backend, data []byte) {
	t.Helper()
	p := &program{data: data}
	n := 1 + p.next(12)
	slots := make([]modelSlot, 4)
	for s := range slots {
		slots[s] = modelSlot{be.NewMatrix(n), growGrid(nil, n)}
	}
	for step := 0; !p.done(); step++ {
		d := &slots[p.next(len(slots))]
		x, y := &slots[p.next(len(slots))], &slots[p.next(len(slots))]
		// Mutators that report a change: d's grid becomes want, and the
		// matrix's answer is held against whether that moved it.
		changes := func(name string, got bool, want [][]bool) {
			if moved := !equalGrid(d.g, want); got != moved {
				t.Fatalf("%s step %d: %s reported changed=%v, the model %v", be.Name(), step, name, got, moved)
			}
			d.g = want
		}
		// The mutators that can drop a bit drop the column index with it.
		dropsIndex := func(name string, m Bool, changed bool) {
			if sm, ok := m.(*SparseMatrix); ok && changed && sm.cols != nil {
				t.Fatalf("%s step %d: %s dropped a bit and kept the column index", be.Name(), step, name)
			}
		}
		var name string
		switch p.next(14) {
		case 0:
			name = "Set"
			for k := 1 + p.next(6); k > 0; k-- {
				i, j := p.next(n), p.next(n)
				d.m.Set(i, j)
				d.g[i][j] = true
			}
		case 1:
			name = "Or"
			want := orGrid(d.g, x.g)
			changes(name, d.m.Or(x.m), want)
		case 2:
			name = "And"
			want := andGrid(d.g, x.g)
			changed := d.m.And(x.m)
			changes(name, changed, want)
			dropsIndex(name, d.m, changed)
		case 3:
			// d absorbs x: d's grid gains x's, x keeps what was new to d.
			name = "Absorb"
			if x == d {
				break
			}
			fresh := andNotGrid(x.g, d.g)
			want := orGrid(d.g, x.g)
			grew := d.m.Absorb(x.m)
			changes(name, grew, want)
			if grew != (countGrid(fresh) > 0) {
				t.Fatalf("%s step %d: Absorb reported grew=%v, leaving %d new bits", be.Name(), step, grew, countGrid(fresh))
			}
			dropsIndex(name, x.m, !equalGrid(x.g, fresh))
			x.g = fresh
		case 4, 5:
			// Any of d, x, y may be one matrix: m.AddMul(m, x), m.AddMul(x, m)
			// and m.AddMul(m, m) all read the operands as they were.
			name = "AddMul"
			want := orGrid(d.g, refMul(x.g, y.g))
			changes(name, d.m.AddMul(x.m, y.m), want)
		case 6:
			name = "Clear"
			d.m.Clear()
			d.g = growGrid(nil, n)
			dropsIndex(name, d.m, true)
		case 7:
			name = "Grow"
			if grown := n + 1 + p.next(24); grown <= maxModelDim {
				n = grown
				for s := range slots {
					slots[s].m.Grow(n)
					slots[s].g = growGrid(slots[s].g, n)
				}
			}
		case 8:
			name = "Clone"
			*d = modelSlot{x.m.Clone(), growGrid(x.g, n)}
		case 9:
			// Both sides stay in play: either may be written next, and a
			// fork of a fork starts the next generation.
			name = "Fork"
			*d = modelSlot{x.m.Fork(), growGrid(x.g, n)}
		case 10:
			// What a product does once its walks have paid for the index.
			name = "Index"
			if sm, ok := d.m.(*SparseMatrix); ok && sm.cols == nil && sm.nnz > 0 {
				sm.cols = sm.buildCols()
			}
		case 11, 12:
			// A cleared matrix writes its next fill over its old rows'
			// storage: every matrix that took bits from them — by Absorb,
			// Or, Clone or a product — must have copied them, which the
			// comparison below checks for all four.
			name = "Refill"
			d.m.Clear()
			d.g = growGrid(nil, n)
			want := orGrid(refMul(x.g, y.g), y.g)
			d.m.AddMul(x.m, y.m)
			d.m.Or(y.m)
			d.g = want
		case 13:
			// A matrix nothing has written: a sparse one holds no row list
			// until its first write, whichever method — or none — that is.
			name = "Fresh"
			*d = modelSlot{be.NewMatrix(n), growGrid(nil, n)}
			if sm, ok := d.m.(*SparseMatrix); ok && (sm.rows != nil || sm.Bytes() != 0) {
				t.Fatalf("%s step %d: NewMatrix allocated a row list (Bytes %d)", be.Name(), step, sm.Bytes())
			}
		}
		for s, sl := range slots {
			if !equalGrid(toBool(sl.m), sl.g) {
				t.Fatalf("%s step %d: after %s matrix %d differs from the model\ngot  %v\nwant %v",
					be.Name(), step, name, s, toBool(sl.m), sl.g)
			}
			if count := countGrid(sl.g); sl.m.Nnz() != count {
				t.Fatalf("%s step %d: after %s matrix %d has Nnz %d, the model %d", be.Name(), step, name, s, sl.m.Nnz(), countGrid(sl.g))
			}
			if eq := equalGrid(sl.g, slots[0].g); sl.m.Equal(slots[0].m) != eq {
				t.Fatalf("%s step %d: after %s matrix %d Equal matrix 0 = %v, the model %v", be.Name(), step, name, s, !eq, eq)
			}
			if sm, ok := sl.m.(*SparseMatrix); ok {
				checkLiveRows(t, sm)
				checkColumnIndex(t, sm)
			}
		}
	}
}

// checkLiveRows asserts the sparse live-row invariant: the list holds every
// non-empty row exactly once and nothing else.
func checkLiveRows(t *testing.T, m *SparseMatrix) {
	t.Helper()
	listed := make(map[int32]int, len(m.live))
	for _, i := range m.live {
		listed[i]++
	}
	for i, row := range m.rows {
		want := 0
		if len(row) > 0 {
			want = 1
		}
		if listed[int32(i)] != want {
			t.Fatalf("row %d holds %d entries and is listed %d times in live rows %v", i, len(row), listed[int32(i)], m.live)
		}
	}
}

// checkColumnIndex asserts the column index invariant of a sparse matrix
// holding one: every set (i, j) is listed under column j — extra rows,
// another holder's, are allowed — and there is a list for every column.
func checkColumnIndex(t *testing.T, m *SparseMatrix) {
	t.Helper()
	if m.cols == nil {
		return
	}
	if len(m.cols.cols) < m.n {
		t.Fatalf("column index covers %d columns of %d", len(m.cols.cols), m.n)
	}
	for i, row := range m.rows {
		for _, j := range row {
			if !slices.Contains(m.cols.cols[j], int32(i)) {
				t.Fatalf("entry (%d,%d) is not listed under its column: %v", i, j, m.cols.cols[j])
			}
		}
	}
}

// TestMatrixModel runs seeded random programs on both backends.
func TestMatrixModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 60; trial++ {
		data := make([]byte, 40+rng.Intn(240))
		rng.Read(data)
		for _, be := range allBackends() {
			runMatrixModel(t, be, data)
		}
	}
}

// FuzzMatrixModel lets the fuzzer write the programs.
func FuzzMatrixModel(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 2, 1, 1, 2, 2, 1, 0, 9, 0, 0, 0, 0, 0, 1, 3, 3, 1, 0, 0, 3, 0, 1, 0, 0, 0, 0, 1, 2, 2})
	f.Add([]byte{11, 0, 1, 2, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 0, 4, 1, 0, 0, 6, 0, 0, 0, 7, 70, 2, 0, 0, 9, 0, 2, 1, 3})
	// Fresh matrices as receiver and operand of every kind of write: a
	// product's left and right operand, And's receiver and operand,
	// Absorb's receiver and argument, a fork's origin, Grow, Clear and
	// Refill, and a Clone.
	f.Add([]byte{5,
		0, 1, 2, 0, 3, 0, 1, 0, 3, 2, 2, 5, 0, // matrix 0 gets four bits
		1, 0, 0, 13, // matrix 1 fresh
		2, 1, 0, 4, 2, 0, 1, 5, // 2 |= 1×0, 2 |= 0×1
		1, 0, 0, 2, 1, 0, 0, 3, // 1 &= 0, 1 absorbs 0
		3, 0, 0, 13, 0, 3, 0, 3, // matrix 3 fresh, 0 absorbs it
		2, 3, 0, 9, 2, 1, 0, 1, // 2 = fork of 3, 2 |= 1
		3, 0, 0, 7, 2, 3, 0, 0, 6, 3, 1, 1, 11, // grow all, clear and refill 3
		3, 0, 0, 13, 0, 3, 0, 2, 1, 3, 0, 8, // 3 fresh, 0 &= 3, 1 = clone of 3
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			t.Skip("long programs add time, not cases")
		}
		for _, be := range allBackends() {
			runMatrixModel(t, be, data)
		}
	})
}

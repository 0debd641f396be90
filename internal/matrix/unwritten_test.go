package matrix

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestNeverWrittenMatrix runs every Bool method on an n×n matrix nothing
// has written — a sparse one holds no row list — and holds what it
// returns, and what it leaves in every matrix it touched, against the same
// calls on the dense backend. Methods that only read it, or write nothing
// into it, leave a sparse one without a row list, reporting 0 bytes.
func TestNeverWrittenMatrix(t *testing.T) {
	const n = 9
	rng := rand.New(rand.NewSource(35))
	grid := randGrid(rng, n, 0.3)
	cases := []struct {
		name string
		// run calls the method on fresh, a never-written matrix, beside
		// full, a matrix holding grid, and logs what it sees.
		run func(fresh, full Bool, log func(...any))
		// stays: fresh still holds no row list afterwards.
		stays bool
	}{
		{"Get", func(fresh, _ Bool, log func(...any)) {
			for i := range n {
				for j := range n {
					log(fresh.Get(i, j))
				}
			}
		}, true},
		{"RangeRow", func(fresh, _ Bool, log func(...any)) {
			for i := range n {
				log(fresh.RangeRow(i, func(j int) bool { log(j); return true }))
			}
		}, true},
		{"Range", func(fresh, _ Bool, log func(...any)) {
			fresh.Range(func(i, j int) bool { log(i, j); return true })
		}, true},
		{"RangeRows", func(fresh, _ Bool, log func(...any)) {
			RangeRows(fresh, func(i int, cols []int32) bool { log(i, cols); return true })
		}, true},
		{"Pairs", func(fresh, _ Bool, log func(...any)) { log(Pairs(fresh), fresh.Nnz(), fresh.Dim()) }, true},
		{"Equal", func(fresh, full Bool, log func(...any)) {
			log(fresh.Equal(full), full.Equal(fresh), fresh.Equal(fresh.Clone()))
		}, true},
		{"And/receiver", func(fresh, full Bool, log func(...any)) { log(fresh.And(full)) }, true},
		{"And/operand", func(fresh, full Bool, log func(...any)) { log(full.And(fresh)) }, true},
		{"Or/receiver", func(fresh, full Bool, log func(...any)) { log(fresh.Or(full)) }, false},
		{"Or/operand", func(fresh, full Bool, log func(...any)) { log(full.Or(fresh)) }, true},
		{"Absorb/receiver", func(fresh, full Bool, log func(...any)) { log(fresh.Absorb(full)) }, false},
		{"Absorb/operand", func(fresh, full Bool, log func(...any)) { log(full.Absorb(fresh)) }, true},
		{"AddMul/receiver", func(fresh, full Bool, log func(...any)) { log(fresh.AddMul(full, full)) }, false},
		{"AddMul/left", func(fresh, full Bool, log func(...any)) { log(full.AddMul(fresh, full)) }, true},
		{"AddMul/right", func(fresh, full Bool, log func(...any)) { log(full.AddMul(full, fresh)) }, true},
		{"AddMul/self", func(fresh, _ Bool, log func(...any)) { log(fresh.AddMul(fresh, fresh)) }, true},
		{"Clone", func(fresh, _ Bool, log func(...any)) {
			cp := fresh.Clone()
			log(toBool(cp), cp.Nnz())
			cp.Set(1, 2)
			log(toBool(cp))
		}, true},
		{"Fork", func(fresh, _ Bool, log func(...any)) {
			fork := fresh.Fork()
			log(toBool(fork), fork.Nnz())
			fork.Set(3, 4)
			log(toBool(fork), toBool(fresh))
			fresh.Set(5, 6)
			log(toBool(fork), toBool(fresh))
		}, false},
		{"Fork/unwritten", func(fresh, _ Bool, log func(...any)) {
			fork := fresh.Fork()
			fork.Set(3, 4)
			log(toBool(fork))
		}, true},
		{"Grow", func(fresh, _ Bool, log func(...any)) {
			fresh.Grow(n + 3)
			log(fresh.Dim(), toBool(fresh), fresh.Get(n+2, n+1))
		}, true},
		{"Grow/then Set", func(fresh, _ Bool, log func(...any)) {
			fresh.Grow(n + 3)
			fresh.Set(n+2, 0)
			log(toBool(fresh), fresh.Nnz())
		}, false},
		{"Clear", func(fresh, _ Bool, log func(...any)) {
			fresh.Clear()
			log(toBool(fresh), fresh.Nnz())
		}, true},
		{"Clear/forked", func(fresh, _ Bool, log func(...any)) {
			fork := fresh.Fork()
			fresh.Clear()
			fork.Clear()
			log(toBool(fresh), toBool(fork))
		}, true},
		{"Clear/then Or", func(fresh, full Bool, log func(...any)) {
			fresh.Clear()
			log(fresh.Or(full), toBool(fresh))
		}, false},
	}
	for _, c := range cases {
		var transcripts [2]string
		for k, be := range allBackends() {
			var b strings.Builder
			log := func(vs ...any) { fmt.Fprintln(&b, vs...) }
			fresh, full := be.NewMatrix(n), be.NewMatrix(n)
			fill(full, grid)
			c.run(fresh, full, log)
			log("after", toBool(fresh), fresh.Nnz(), toBool(full), full.Nnz())
			transcripts[k] = b.String()
			sm, ok := fresh.(*SparseMatrix)
			if !ok {
				continue
			}
			checkLiveRows(t, sm)
			if unwritten := sm.rows == nil && sm.Bytes() == 0; unwritten != c.stays {
				t.Errorf("%s: the never-written sparse matrix holds no row list afterwards: %v, want %v (Bytes %d)",
					c.name, unwritten, c.stays, sm.Bytes())
			}
		}
		if transcripts[0] != transcripts[1] {
			t.Errorf("%s on a never-written matrix: sparse and dense disagree\ndense:\n%s\nsparse:\n%s", c.name, transcripts[0], transcripts[1])
		}
	}
}

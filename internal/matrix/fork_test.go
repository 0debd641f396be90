package matrix

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestForkLeavesOriginUntouched is the copy-on-write contract a published
// index version rests on: after Fork, whatever is done to one side — every
// mutator of the interface, in random order, on random matrices — the other
// side still equals a deep Clone taken before, on both backends, and
// the mutated side computes what an independent deep copy would.
func TestForkLeavesOriginUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	mutators := []struct {
		name string
		do   func(m, x, y Bool, rng *rand.Rand)
	}{
		{"Set", func(m, _, _ Bool, rng *rand.Rand) {
			for k := 0; k < 1+rng.Intn(2*m.Dim()); k++ {
				m.Set(rng.Intn(m.Dim()), rng.Intn(m.Dim()))
			}
		}},
		{"Or", func(m, x, _ Bool, _ *rand.Rand) { m.Or(x) }},
		{"And", func(m, x, _ Bool, _ *rand.Rand) { m.And(x) }},
		{"Absorb", func(m, x, _ Bool, _ *rand.Rand) { m.Absorb(x.Clone()) }},
		{"AbsorbInto", func(m, x, _ Bool, _ *rand.Rand) { x.Clone().Absorb(m) }},
		{"AddMul", func(m, x, y Bool, _ *rand.Rand) { m.AddMul(x, y) }},
		{"AddMulSelf", func(m, _, _ Bool, _ *rand.Rand) { m.AddMul(m, m) }},
		{"Clear", func(m, _, _ Bool, _ *rand.Rand) { m.Clear() }},
	}
	for _, be := range allBackends() {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(24)
			origin := be.NewMatrix(n)
			fill(origin, randGrid(rng, n, 0.15))
			before := origin.Clone()
			// Either side may be the one written: the reference copy is what
			// an unshared matrix would have computed.
			written, kept := origin.Fork(), origin
			if trial%4 == 3 {
				written, kept = kept, written
			}
			reference := before.Clone()
			for step := 0; step < 6; step++ {
				mut := mutators[rng.Intn(len(mutators))]
				x, y := be.NewMatrix(written.Dim()), be.NewMatrix(written.Dim())
				fill(x, randGrid(rng, written.Dim(), 0.2))
				fill(y, randGrid(rng, written.Dim(), 0.2))
				seed := rng.Int63()
				mut.do(written, x, y, rand.New(rand.NewSource(seed)))
				mut.do(reference, x, y, rand.New(rand.NewSource(seed)))
				if rng.Intn(4) == 0 {
					grown := written.Dim() + 1 + rng.Intn(5)
					written.Grow(grown)
					reference.Grow(grown)
				}
				if !kept.Equal(before) {
					t.Fatalf("%s trial %d: %s on one side of a fork changed the other", be.Name(), trial, mut.name)
				}
				if !written.Equal(reference) || written.Nnz() != reference.Nnz() {
					t.Fatalf("%s trial %d: %s on a forked matrix disagrees with the same call on a deep copy", be.Name(), trial, mut.name)
				}
			}
			// A fork of the written side starts the next generation.
			next := written.Fork()
			next.Set(0, 0)
			written.Clone().Absorb(next)
			if !written.Equal(reference) {
				t.Fatalf("%s trial %d: second-generation fork wrote through", be.Name(), trial)
			}
		}
	}
}

// TestRangeRow: the row accessor visits exactly row i's entries in column
// order, stops when told to, and reports whether it finished.
func TestRangeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, be := range allBackends() {
		n := 70 // two words per dense row
		grid := randGrid(rng, n, 0.3)
		m := be.NewMatrix(n)
		fill(m, grid)
		for i := 0; i < n; i++ {
			var want, got []int
			for j, on := range grid[i] {
				if on {
					want = append(want, j)
				}
			}
			if done := m.RangeRow(i, func(j int) bool { got = append(got, j); return true }); !done {
				t.Fatalf("%s: full RangeRow(%d) reported an early stop", be.Name(), i)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RangeRow(%d) = %v, want %v", be.Name(), i, got, want)
			}
			if len(want) > 1 {
				seen := 0
				if done := m.RangeRow(i, func(int) bool { seen++; return false }); done || seen != 1 {
					t.Fatalf("%s: stopped RangeRow(%d) visited %d entries, done=%v", be.Name(), i, seen, done)
				}
			}
		}
	}
}

// grownWithRoom returns an unshared n×n sparse matrix whose rows Absorb
// grew a few random bits at a time, so that they hold capacity past their
// lengths, and its grid; ok is false when no row was left with room.
func grownWithRoom(rng *rand.Rand, n int) (m *SparseMatrix, g [][]bool, ok bool) {
	m, g = NewSparse(n), growGrid(nil, n)
	for range 12 {
		xg := thinGrid(rng, n, n)
		x := NewSparse(n)
		fill(x, xg)
		m.Absorb(x)
		g = orGrid(g, xg)
	}
	for _, i := range m.live {
		if cap(m.rows[i]) > len(m.rows[i]) {
			ok = true
		}
	}
	return m, g, ok && m.slack > 0
}

// TestForkNeverSeesInPlaceGrowth: rows Absorb grew hold room to grow into,
// which Absorb and Set use while the matrix is unshared. Once it is forked,
// Absorb, AddMul and Set on either side — bits landing in the middle of
// rows with room, where a growth in place would move the bits the other
// side reads — leave the other side as it was, entry for entry, and
// compute what they would on an unshared copy.
func TestForkNeverSeesInPlaceGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(40)
		origin, og, ok := grownWithRoom(rng, n)
		if !ok {
			t.Fatalf("trial %d: Absorb left no row with room: not the matrix this test needs", trial)
		}
		written, kept := Bool(origin.Fork()), Bool(origin)
		if trial%2 == 1 {
			written, kept = kept, written
		}
		wg := growGrid(og, n)
		for step := 0; step < 6; step++ {
			switch step % 3 {
			case 0:
				xg := thinGrid(rng, n, n)
				x := NewSparse(n)
				fill(x, xg)
				written.Absorb(x)
				wg = orGrid(wg, xg)
			case 1:
				ag, bg := thinGrid(rng, n, n/2), thinGrid(rng, n, n)
				a, b := NewSparse(n), NewSparse(n)
				fill(a, ag)
				fill(b, bg)
				written.AddMul(a, b)
				wg = orGrid(wg, refMul(ag, bg))
			case 2:
				for k := 0; k < n; k++ {
					i, j := rng.Intn(n), rng.Intn(n)
					written.Set(i, j)
					wg[i][j] = true
				}
			}
			if got := toBool(kept); !equalGrid(got, og) || kept.Nnz() != countGrid(og) {
				t.Fatalf("trial %d step %d: writing one side of a fork changed the other\ngot  %v\nwant %v", trial, step, got, og)
			}
			if !equalGrid(toBool(written), wg) || written.Nnz() != countGrid(wg) {
				t.Fatalf("trial %d step %d: the written side of a fork differs from its grid", trial, step)
			}
			checkLiveRows(t, written.(*SparseMatrix))
		}
	}
}

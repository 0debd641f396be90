package matrix

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func andGrid(a, b [][]bool) [][]bool {
	n := len(a)
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, n)
		for j := range out[i] {
			out[i][j] = a[i][j] && b[i][j]
		}
	}
	return out
}

func andNotGrid(a, b [][]bool) [][]bool {
	n := len(a)
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, n)
		for j := range out[i] {
			out[i][j] = a[i][j] && !b[i][j]
		}
	}
	return out
}

func TestAndSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, be := range allBackends() {
		for trial := 0; trial < 15; trial++ {
			n := 1 + rng.Intn(40)
			ga := randGrid(rng, n, 0.2)
			gb := randGrid(rng, n, 0.2)
			a := be.NewMatrix(n)
			b := be.NewMatrix(n)
			fill(a, ga)
			fill(b, gb)
			changed := a.And(b)
			want := andGrid(ga, gb)
			if !reflect.DeepEqual(toBool(a), want) {
				t.Fatalf("%s: And wrong (n=%d)", be.Name(), n)
			}
			if changed != !reflect.DeepEqual(ga, want) {
				t.Fatalf("%s: And changed flag wrong", be.Name())
			}
			// Nnz must stay consistent.
			count := 0
			for i := range want {
				for j := range want[i] {
					if want[i][j] {
						count++
					}
				}
			}
			if a.Nnz() != count {
				t.Fatalf("%s: Nnz = %d, want %d", be.Name(), a.Nnz(), count)
			}
			// Idempotent.
			if a.And(b) {
				t.Fatalf("%s: repeated And reported change", be.Name())
			}
		}
	}
}

// TestAbsorbSemantics: T.Absorb(next) leaves T ∪ next in T and next \ T
// in next, and reports whether T grew — on both backends, and a second
// Absorb of what is left reports no growth and empties next.
func TestAbsorbSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, be := range allBackends() {
		for trial := 0; trial < 15; trial++ {
			n := 1 + rng.Intn(40)
			ga := randGrid(rng, n, 0.2)
			gb := randGrid(rng, n, 0.2)
			a := be.NewMatrix(n)
			b := be.NewMatrix(n)
			fill(a, ga)
			fill(b, gb)
			grew := a.Absorb(b)
			union, fresh := orGrid(ga, gb), andNotGrid(gb, ga)
			if !reflect.DeepEqual(toBool(a), union) {
				t.Fatalf("%s: Absorb left the wrong union (n=%d)", be.Name(), n)
			}
			if !reflect.DeepEqual(toBool(b), fresh) {
				t.Fatalf("%s: Absorb left the wrong new bits (n=%d)", be.Name(), n)
			}
			if grew != !reflect.DeepEqual(ga, union) {
				t.Fatalf("%s: Absorb grew flag wrong", be.Name())
			}
			count := 0
			for i := range fresh {
				for j := range fresh[i] {
					if fresh[i][j] {
						count++
					}
				}
			}
			if b.Nnz() != count {
				t.Fatalf("%s: Nnz = %d, want %d", be.Name(), b.Nnz(), count)
			}
			again := b.Clone()
			if a.Absorb(again) || again.Nnz() != 0 {
				t.Fatalf("%s: repeated Absorb reported growth or left %d bits", be.Name(), again.Nnz())
			}
		}
	}
}

// TestQuickSetAlgebra checks the identity (a ∪ b) = (a \ b) ∪ (a ∩ b) ∪ (b \ a)
// across backends with testing/quick, each difference what Absorb leaves
// of its argument.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(seedA, seedB int64, nRaw uint8, backendPick uint8) bool {
		n := int(nRaw%30) + 1
		backends := allBackends()
		be := backends[int(backendPick)%len(backends)]
		ga := randGrid(rand.New(rand.NewSource(seedA)), n, 0.2)
		gb := randGrid(rand.New(rand.NewSource(seedB)), n, 0.2)
		mk := func(g [][]bool) Bool {
			m := be.NewMatrix(n)
			fill(m, g)
			return m
		}
		union := mk(ga)
		union.Or(mk(gb))

		aMinusB := mk(ga)
		mk(gb).Absorb(aMinusB)
		aAndB := mk(ga)
		aAndB.And(mk(gb))
		bMinusA := mk(gb)
		mk(ga).Absorb(bMinusA)

		rebuilt := be.NewMatrix(n)
		rebuilt.Or(aMinusB)
		rebuilt.Or(aAndB)
		rebuilt.Or(bMinusA)
		return rebuilt.Equal(union)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSortedSliceHelpers(t *testing.T) {
	cases := []struct {
		a, b  []int32
		inter []int32
		diff  []int32 // b \ a, what subtractRow leaves of b
	}{
		{nil, nil, nil, nil},
		{[]int32{1, 2, 3}, nil, nil, nil},
		{nil, []int32{1, 2, 3}, nil, []int32{1, 2, 3}},
		{[]int32{1, 2, 3}, []int32{2}, []int32{2}, nil},
		{[]int32{2}, []int32{1, 2, 3}, []int32{2}, []int32{1, 3}},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, []int32{1, 2, 3}, nil},
		{[]int32{5}, []int32{1, 9}, nil, []int32{1, 9}},
		{[]int32{3, 7}, []int32{1, 4, 5, 8}, nil, []int32{1, 4, 5, 8}},
	}
	for _, c := range cases {
		gotI := intersectSorted(c.a, c.b)
		if !slices.Equal(gotI, c.inter) {
			t.Errorf("intersect(%v,%v) = %v, want %v", c.a, c.b, gotI, c.inter)
		}
		x := slices.Clone(c.b)
		fresh := subtractRow(c.a, x)
		if !slices.Equal(fresh, c.diff) {
			t.Errorf("subtractRow(%v,%v) left %v, want %v", c.a, c.b, fresh, c.diff)
		}
		if len(fresh) > 0 && &fresh[0] != &x[0] {
			t.Errorf("subtractRow(%v,%v) moved the new bits out of the row", c.a, c.b)
		}
		want := slices.Clone(c.a)
		for _, v := range c.b {
			if !slices.Contains(want, v) {
				want = append(want, v)
			}
		}
		slices.Sort(want)
		if len(fresh) == 0 {
			continue
		}
		// Not owned: an exactly sized copy, the old row untouched.
		old := slices.Clone(c.a)
		if got := growRow(old, fresh, false); !slices.Equal(got, want) || cap(got) != len(got) {
			t.Errorf("growRow(%v,%v) of a shared row = %v (cap %d), want %v exactly sized", c.a, fresh, got, cap(got), want)
		} else if !slices.Equal(old, c.a) || len(old) > 0 && &got[0] == &old[0] {
			t.Errorf("growRow(%v,%v) wrote over a shared row", c.a, fresh)
		}
		// Owned without room: a new slice with headroom to grow into.
		moved := growRow(slices.Clip(slices.Clone(c.a)), fresh, true)
		if !slices.Equal(moved, want) {
			t.Errorf("growRow(%v,%v) of an owned full row = %v, want %v", c.a, fresh, moved, want)
		}
		// Owned with room: merged in place, whatever the room held before.
		room := append(slices.Clone(c.a), slices.Repeat([]int32{-1}, len(fresh)+1)...)[:len(c.a)]
		inPlace := growRow(room, fresh, true)
		if !slices.Equal(inPlace, want) || &inPlace[:1][0] != &room[:1][0] {
			t.Errorf("growRow(%v,%v) of an owned row with room = %v, want %v in its storage", c.a, fresh, inPlace, want)
		}
	}
	// Doubling: growth by a bit at a time moves the row O(log n) times.
	var row []int32
	moves := 0
	for v := range int32(1000) {
		grown := growRow(row, []int32{v}, true)
		if len(row) == 0 || &grown[0] != &row[0] {
			moves++
		}
		row = grown
	}
	if moves > 20 {
		t.Errorf("growing a row a bit at a time to 1000 moved it %d times, want O(log n)", moves)
	}
	// The no-drop fast path must return the original slice (no copy).
	a := []int32{1, 2, 3}
	if got := intersectSorted(a, []int32{1, 2, 3, 4}); &got[0] != &a[0] {
		t.Error("intersectSorted should return a unchanged when nothing dropped")
	}
}

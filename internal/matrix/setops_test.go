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
		diff  []int32 // b \ a, what absorbRow leaves of b
	}{
		{nil, nil, nil, nil},
		{[]int32{1, 2, 3}, nil, nil, nil},
		{nil, []int32{1, 2, 3}, nil, []int32{1, 2, 3}},
		{[]int32{1, 2, 3}, []int32{2}, []int32{2}, nil},
		{[]int32{2}, []int32{1, 2, 3}, []int32{2}, []int32{1, 3}},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, []int32{1, 2, 3}, nil},
		{[]int32{5}, []int32{1, 9}, nil, []int32{1, 9}},
	}
	for _, c := range cases {
		gotI := intersectSorted(c.a, c.b)
		if !slices.Equal(gotI, c.inter) {
			t.Errorf("intersect(%v,%v) = %v, want %v", c.a, c.b, gotI, c.inter)
		}
		x := slices.Clone(c.b)
		union, fresh := absorbRow(c.a, x)
		if !slices.Equal(fresh, c.diff) {
			t.Errorf("absorbRow(%v,%v) left %v, want %v", c.a, c.b, fresh, c.diff)
		}
		if len(fresh) > 0 && &fresh[0] != &x[0] {
			t.Errorf("absorbRow(%v,%v) moved the new bits out of the row", c.a, c.b)
		}
		want := slices.Clone(c.a)
		for _, v := range c.b {
			if !slices.Contains(want, v) {
				want = append(want, v)
			}
		}
		slices.Sort(want)
		switch {
		case len(c.diff) == 0 && union != nil:
			t.Errorf("absorbRow(%v,%v) allocated a union %v that adds nothing", c.a, c.b, union)
		case len(c.diff) > 0 && !slices.Equal(union, want):
			t.Errorf("absorbRow(%v,%v) union = %v, want %v", c.a, c.b, union, want)
		case len(union) > 0 && len(c.a) > 0 && &union[0] == &c.a[0]:
			t.Errorf("absorbRow(%v,%v) wrote the union over the old row", c.a, c.b)
		}
	}
	// The no-drop fast path must return the original slice (no copy).
	a := []int32{1, 2, 3}
	if got := intersectSorted(a, []int32{1, 2, 3, 4}); &got[0] != &a[0] {
		t.Error("intersectSorted should return a unchanged when nothing dropped")
	}
}

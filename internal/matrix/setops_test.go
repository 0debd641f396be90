package matrix

import (
	"math/rand"
	"reflect"
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

func TestAndNotSemantics(t *testing.T) {
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
			changed := a.AndNot(b)
			want := andNotGrid(ga, gb)
			if !reflect.DeepEqual(toBool(a), want) {
				t.Fatalf("%s: AndNot wrong (n=%d)", be.Name(), n)
			}
			if changed != !reflect.DeepEqual(ga, want) {
				t.Fatalf("%s: AndNot changed flag wrong", be.Name())
			}
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
			if a.AndNot(b) {
				t.Fatalf("%s: repeated AndNot reported change", be.Name())
			}
		}
	}
}

// TestQuickSetAlgebra checks the identity (a ∪ b) = (a \ b) ∪ (a ∩ b) ∪ (b \ a)
// across backends with testing/quick.
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
		aMinusB.AndNot(mk(gb))
		aAndB := mk(ga)
		aAndB.And(mk(gb))
		bMinusA := mk(gb)
		bMinusA.AndNot(mk(ga))

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
		diff  []int32
	}{
		{nil, nil, nil, nil},
		{[]int32{1, 2, 3}, nil, nil, []int32{1, 2, 3}},
		{[]int32{1, 2, 3}, []int32{2}, []int32{2}, []int32{1, 3}},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, []int32{1, 2, 3}, nil},
		{[]int32{5}, []int32{1, 9}, nil, []int32{5}},
	}
	for _, c := range cases {
		gotI := intersectSorted(c.a, c.b)
		if len(gotI) != len(c.inter) {
			t.Errorf("intersect(%v,%v) = %v, want %v", c.a, c.b, gotI, c.inter)
		} else {
			for i := range gotI {
				if gotI[i] != c.inter[i] {
					t.Errorf("intersect(%v,%v) = %v, want %v", c.a, c.b, gotI, c.inter)
				}
			}
		}
		gotD := differenceSorted(c.a, c.b)
		if len(gotD) != len(c.diff) {
			t.Errorf("difference(%v,%v) = %v, want %v", c.a, c.b, gotD, c.diff)
		} else {
			for i := range gotD {
				if gotD[i] != c.diff[i] {
					t.Errorf("difference(%v,%v) = %v, want %v", c.a, c.b, gotD, c.diff)
				}
			}
		}
	}
	// No-drop fast paths must return the original slice (no copy).
	a := []int32{1, 2, 3}
	if got := differenceSorted(a, []int32{9}); &got[0] != &a[0] {
		t.Error("differenceSorted should return a unchanged when nothing dropped")
	}
	if got := intersectSorted(a, []int32{1, 2, 3, 4}); &got[0] != &a[0] {
		t.Error("intersectSorted should return a unchanged when nothing dropped")
	}
}

package matrix

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refMul is the O(n³) reference Boolean multiply used as the oracle.
func refMul(a, b [][]bool) [][]bool {
	n := len(a)
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if a[i][k] && b[k][j] {
					out[i][j] = true
					break
				}
			}
		}
	}
	return out
}

func toBool(m Bool) [][]bool {
	n := m.Dim()
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, n)
	}
	m.Range(func(i, j int) bool {
		out[i][j] = true
		return true
	})
	return out
}

func fill(m Bool, grid [][]bool) {
	for i := range grid {
		for j := range grid[i] {
			if grid[i][j] {
				m.Set(i, j)
			}
		}
	}
}

func randGrid(rng *rand.Rand, n int, density float64) [][]bool {
	g := make([][]bool, n)
	for i := range g {
		g[i] = make([]bool, n)
		for j := range g[i] {
			g[i][j] = rng.Float64() < density
		}
	}
	return g
}

func orGrid(a, b [][]bool) [][]bool {
	n := len(a)
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, n)
		for j := range out[i] {
			out[i][j] = a[i][j] || b[i][j]
		}
	}
	return out
}

func allBackends() []Backend {
	return []Backend{Dense(), Sparse()}
}

// acceptedNames lists every name BackendByName accepts with the backend it
// resolves to: the names of the retired row-parallel kernels decode to the
// kernel of the same representation.
var acceptedNames = []struct{ name, backend string }{
	{"dense", "dense"},
	{"dense-parallel", "dense"},
	{"sparse", "sparse"},
	{"sparse-parallel", "sparse"},
}

// TestSetGetBasics runs once under every accepted backend name.
func TestSetGetBasics(t *testing.T) {
	for _, c := range acceptedNames {
		be, ok := BackendByName(c.name)
		if !ok {
			t.Fatalf("BackendByName(%q) failed", c.name)
		}
		t.Run(c.name, func(t *testing.T) {
			m := be.NewMatrix(70) // spans more than one 64-bit word
			if m.Dim() != 70 {
				t.Fatalf("Dim = %d", m.Dim())
			}
			coords := [][2]int{{0, 0}, {0, 63}, {0, 64}, {69, 69}, {5, 5}}
			for _, c := range coords {
				if m.Get(c[0], c[1]) {
					t.Errorf("(%d,%d) set before Set", c[0], c[1])
				}
				m.Set(c[0], c[1])
				if !m.Get(c[0], c[1]) {
					t.Errorf("(%d,%d) not set after Set", c[0], c[1])
				}
			}
			if m.Nnz() != len(coords) {
				t.Errorf("Nnz = %d, want %d", m.Nnz(), len(coords))
			}
			// Idempotent Set.
			m.Set(5, 5)
			if m.Nnz() != len(coords) {
				t.Errorf("Nnz after duplicate Set = %d", m.Nnz())
			}
		})
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, be := range allBackends() {
		m := be.NewMatrix(4)
		for _, op := range []func(){
			func() { m.Set(4, 0) },
			func() { m.Set(0, -1) },
			func() { m.Get(0, 4) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: out-of-range access did not panic", be.Name())
					}
				}()
				op()
			}()
		}
	}
}

func TestMixedBackendsPanic(t *testing.T) {
	d := Dense().NewMatrix(3)
	s := Sparse().NewMatrix(3)
	defer func() {
		if recover() == nil {
			t.Error("mixing backends should panic")
		}
	}()
	d.AddMul(s, s)
}

func TestDimensionMismatchPanics(t *testing.T) {
	a := Dense().NewMatrix(3)
	b := Dense().NewMatrix(4)
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	a.Or(b)
}

func TestRangeOrder(t *testing.T) {
	for _, be := range allBackends() {
		m := be.NewMatrix(5)
		m.Set(3, 1)
		m.Set(0, 4)
		m.Set(3, 0)
		m.Set(1, 2)
		var got []Pair
		m.Range(func(i, j int) bool {
			got = append(got, Pair{i, j})
			return true
		})
		want := []Pair{{0, 4}, {1, 2}, {3, 0}, {3, 1}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Range order = %v, want %v", be.Name(), got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	for _, be := range allBackends() {
		m := be.NewMatrix(4)
		m.Set(0, 0)
		m.Set(1, 1)
		m.Set(2, 2)
		count := 0
		m.Range(func(i, j int) bool {
			count++
			return count < 2
		})
		if count != 2 {
			t.Errorf("%s: early stop visited %d entries, want 2", be.Name(), count)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, be := range allBackends() {
		m := be.NewMatrix(4)
		m.Set(1, 1)
		c := m.Clone()
		c.Set(2, 2)
		if m.Get(2, 2) {
			t.Errorf("%s: Clone shares storage", be.Name())
		}
		if !c.Get(1, 1) {
			t.Errorf("%s: Clone lost entry", be.Name())
		}
	}
}

func TestOrSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, be := range allBackends() {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(40)
			ga := randGrid(rng, n, 0.15)
			gb := randGrid(rng, n, 0.15)
			a := be.NewMatrix(n)
			b := be.NewMatrix(n)
			fill(a, ga)
			fill(b, gb)
			changed := a.Or(b)
			want := orGrid(ga, gb)
			if !reflect.DeepEqual(toBool(a), want) {
				t.Fatalf("%s: Or result wrong (n=%d)", be.Name(), n)
			}
			// changed must be accurate: true iff a gained entries.
			gained := false
			for i := range want {
				for j := range want[i] {
					if want[i][j] && !ga[i][j] {
						gained = true
					}
				}
			}
			if changed != gained {
				t.Fatalf("%s: Or changed=%v, want %v", be.Name(), changed, gained)
			}
			// Second Or is a no-op.
			if a.Or(b) {
				t.Fatalf("%s: repeated Or reported change", be.Name())
			}
		}
	}
}

func TestAddMulAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, be := range allBackends() {
		for trial := 0; trial < 25; trial++ {
			n := 1 + rng.Intn(50)
			ga := randGrid(rng, n, 0.12)
			gb := randGrid(rng, n, 0.12)
			gm := randGrid(rng, n, 0.05)
			a := be.NewMatrix(n)
			b := be.NewMatrix(n)
			m := be.NewMatrix(n)
			fill(a, ga)
			fill(b, gb)
			fill(m, gm)
			before := toBool(m)
			changed := m.AddMul(a, b)
			want := orGrid(before, refMul(ga, gb))
			if !reflect.DeepEqual(toBool(m), want) {
				t.Fatalf("%s: AddMul wrong (n=%d, trial=%d)", be.Name(), n, trial)
			}
			if changed != !reflect.DeepEqual(before, want) {
				t.Fatalf("%s: AddMul changed flag wrong", be.Name())
			}
			// Fixpoint: repeating the same AddMul adds nothing new beyond
			// what another application of the product adds; specifically
			// m already contains a×b now, so AddMul(a,b) must return false.
			if m.AddMul(a, b) {
				t.Fatalf("%s: AddMul not idempotent", be.Name())
			}
		}
	}
}

func TestAddMulAliasingSquare(t *testing.T) {
	// m.AddMul(m, m) is the closure step a ← a ∪ a²; aliasing must be safe.
	for _, be := range allBackends() {
		m := be.NewMatrix(4)
		m.Set(0, 1)
		m.Set(1, 2)
		m.Set(2, 3)
		if !m.AddMul(m, m) {
			t.Fatalf("%s: square should change a chain", be.Name())
		}
		// After one squaring: paths of length ≤ 2.
		for _, want := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}} {
			if !m.Get(want[0], want[1]) {
				t.Errorf("%s: missing (%d,%d) after square", be.Name(), want[0], want[1])
			}
		}
		if m.Get(0, 3) {
			t.Errorf("%s: (0,3) requires two squarings", be.Name())
		}
		m.AddMul(m, m)
		if !m.Get(0, 3) {
			t.Errorf("%s: (0,3) missing after second square", be.Name())
		}
	}
}

func TestEqual(t *testing.T) {
	for _, be := range allBackends() {
		a := be.NewMatrix(5)
		b := be.NewMatrix(5)
		if !a.Equal(b) {
			t.Errorf("%s: empty matrices not equal", be.Name())
		}
		a.Set(2, 3)
		if a.Equal(b) {
			t.Errorf("%s: unequal matrices reported equal", be.Name())
		}
		b.Set(2, 3)
		if !a.Equal(b) {
			t.Errorf("%s: equal matrices reported unequal", be.Name())
		}
	}
}

// TestBackendsAgree is the cross-backend property test: every backend must
// produce identical results for the same random (AddMul ∘ Or)* programs.
func TestBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	backends := allBackends()
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(40)
		ga := randGrid(rng, n, 0.1)
		gb := randGrid(rng, n, 0.1)
		results := make([][][]bool, len(backends))
		for bi, be := range backends {
			a := be.NewMatrix(n)
			b := be.NewMatrix(n)
			fill(a, ga)
			fill(b, gb)
			// Program: a |= a×b; b |= a; a |= a×a; repeat twice.
			for step := 0; step < 2; step++ {
				a.AddMul(a, b)
				b.Or(a)
				a.AddMul(a, a)
			}
			results[bi] = toBool(a)
		}
		for bi := 1; bi < len(backends); bi++ {
			if !reflect.DeepEqual(results[0], results[bi]) {
				t.Fatalf("trial %d: %s disagrees with %s",
					trial, backends[bi].Name(), backends[0].Name())
			}
		}
	}
}

// TestQuickDenseSparseMulEquivalence uses testing/quick to compare the
// dense and sparse multiply kernels on arbitrary bit patterns.
func TestQuickDenseSparseMulEquivalence(t *testing.T) {
	f := func(seedA, seedB int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		rngA := rand.New(rand.NewSource(seedA))
		rngB := rand.New(rand.NewSource(seedB))
		ga := randGrid(rngA, n, 0.15)
		gb := randGrid(rngB, n, 0.15)
		d := Dense().NewMatrix(n)
		da, db := Dense().NewMatrix(n), Dense().NewMatrix(n)
		fill(da, ga)
		fill(db, gb)
		d.AddMul(da, db)
		s := Sparse().NewMatrix(n)
		sa, sb := Sparse().NewMatrix(n), Sparse().NewMatrix(n)
		fill(sa, ga)
		fill(sb, gb)
		s.AddMul(sa, sb)
		return reflect.DeepEqual(toBool(d), toBool(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionSorted checks the sparse row-merge helper on arbitrary
// sorted inputs, on a matrix with and without spare storage.
func TestQuickUnionSorted(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := uniqSorted(xs)
		b := uniqSorted(ys)
		var m SparseMatrix
		if len(xs)%2 == 1 {
			m.Clear() // rows go into spare storage from here on
		}
		merged, grew := m.union(a, b)
		// Reference: set union.
		set := map[int32]bool{}
		for _, x := range a {
			set[x] = true
		}
		added := false
		for _, y := range b {
			if !set[y] {
				set[y] = true
				added = true
			}
		}
		if grew != added {
			return false
		}
		if len(merged) != len(set) {
			return false
		}
		for i := 1; i < len(merged); i++ {
			if merged[i-1] >= merged[i] {
				return false
			}
		}
		for _, x := range merged {
			if !set[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func uniqSorted(xs []uint16) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, x := range xs {
		seen[int32(x)] = true
	}
	for x := range seen {
		out = append(out, x)
	}
	sortInt32(out)
	return out
}

func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

func TestPairs(t *testing.T) {
	m := NewSparse(4)
	m.Set(1, 2)
	m.Set(0, 3)
	got := Pairs(m)
	want := []Pair{{0, 3}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Pairs = %v, want %v", got, want)
	}
}

func TestBackendNames(t *testing.T) {
	var names []string
	for _, be := range Backends() {
		names = append(names, be.Name())
	}
	if want := []string{"dense", "sparse"}; !reflect.DeepEqual(names, want) {
		t.Errorf("Backends() = %v, want %v", names, want)
	}
	for _, c := range acceptedNames {
		if be, ok := BackendByName(c.name); !ok || be.Name() != c.backend {
			t.Errorf("BackendByName(%q) = %v, %v; want %s", c.name, be, ok, c.backend)
		}
	}
	if be, ok := BackendByName("gpu"); ok {
		t.Errorf("BackendByName(gpu) = %v, want none", be.Name())
	}
}

func TestEmptyMatrixOps(t *testing.T) {
	for _, be := range allBackends() {
		m := be.NewMatrix(0)
		if m.Nnz() != 0 || m.Dim() != 0 {
			t.Errorf("%s: bad empty matrix", be.Name())
		}
		if m.AddMul(m.Clone(), m.Clone()) {
			t.Errorf("%s: empty AddMul changed", be.Name())
		}
		n1 := be.NewMatrix(1)
		n1.Set(0, 0)
		if !n1.Get(0, 0) || n1.Nnz() != 1 {
			t.Errorf("%s: 1×1 matrix broken", be.Name())
		}
		// (0,0)·(0,0) = (0,0) is already present, so squaring changes nothing.
		if n1.AddMul(n1, n1) {
			t.Errorf("%s: 1×1 self-loop square should not change", be.Name())
		}
	}
}

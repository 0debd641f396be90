package matrix

import (
	"math/rand"
	"sync"
	"testing"
)

// These tests exist to run under `go test -race`: they exercise the
// cross-matrix concurrency AddMul allows — many products into distinct
// destinations sharing both operands, or only the right one where a sparse
// left operand may be written (its column index).

func randomMatrix(rng *rand.Rand, be Backend, n, nnz int) Bool {
	m := be.NewMatrix(n)
	for i := 0; i < nnz; i++ {
		m.Set(rng.Intn(n), rng.Intn(n))
	}
	return m
}

// TestAddMulConcurrentDestinations runs many AddMuls with shared operands
// into distinct destinations at once — the engine's access pattern when
// several productions read the same non-terminal matrix. Under -race this
// flushes out any hidden write to an operand. On the sparse backend b holds
// a bit in every row, so no product has a thinner right operand and each
// walks a's live rows: the path on which a is only read (AddMul).
func TestAddMulConcurrentDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, goroutines = 97, 8
	for _, be := range allBackends() {
		a := randomMatrix(rng, be, n, 3*n)
		b := randomMatrix(rng, be, n, 3*n)
		if _, ok := b.(*SparseMatrix); ok {
			for i := range n {
				b.Set(i, i)
			}
		}
		want := be.NewMatrix(n)
		want.AddMul(a, b)
		var wg sync.WaitGroup
		results := make([]Bool, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := be.NewMatrix(n)
				dst.AddMul(a, b)
				results[g] = dst
			}(g)
		}
		wg.Wait()
		for g, got := range results {
			if !got.Equal(want) {
				t.Fatalf("backend %s: concurrent AddMul %d diverged", be.Name(), g)
			}
		}
		if s, ok := a.(*SparseMatrix); ok && (s.cols != nil || s.walked != 0) {
			t.Fatalf("backend %s: a product over a's live rows wrote a", be.Name())
		}
	}
}

// TestAddMulThroughColumnIndexConcurrently is the sparse case the test
// above leaves out: b has fewer live rows than a, so a product may write
// its left operand. Each goroutine drives its own copy of a, round after
// round, into fresh destinations, all reading one b — a frontier Δ several
// rules multiply by. The copies rent, then build their column index, and
// the later rounds find their product rows through it.
func TestAddMulThroughColumnIndexConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, goroutines, rounds = 1024, 8, 8
	be := Sparse()
	a := randomMatrix(rng, be, n, 2*n)
	b := randomMatrix(rng, be, n, 0)
	for range 150 {
		i := rng.Intn(n)
		for range 3 {
			b.Set(i, rng.Intn(n))
		}
	}
	want := be.NewMatrix(n)
	want.AddMul(a.Clone(), b)
	lefts := make([]*SparseMatrix, goroutines)
	for g := range lefts {
		lefts[g] = a.Clone().(*SparseMatrix)
	}
	var wg sync.WaitGroup
	results := make([][]Bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for range rounds {
				dst := be.NewMatrix(n)
				dst.AddMul(lefts[g], b)
				results[g] = append(results[g], dst)
			}
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		for r, dst := range got {
			if !dst.Equal(want) {
				t.Fatalf("concurrent AddMul %d, round %d diverged", g, r)
			}
		}
		left := lefts[g]
		if left.cols == nil {
			t.Fatalf("%d rounds never built the left operand's column index", rounds)
		}
		if rows := left.productRows(b.(*SparseMatrix)); len(rows) >= len(left.live) {
			t.Fatalf("the index picks %d of %d live rows, want fewer", len(rows), len(left.live))
		}
	}
}

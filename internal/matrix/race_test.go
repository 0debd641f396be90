package matrix

import (
	"math/rand"
	"sync"
	"testing"
)

// The parallel backends fan AddMul out across worker goroutines writing
// disjoint row ranges of a shared product buffer. These tests exist to run
// under `go test -race`: they exercise the internal parallelism (many
// workers, odd dimensions, aliased operands) and the cross-matrix
// concurrency AddMul allows — many products into distinct destinations
// sharing both operands, or only the right one where a sparse left operand
// may be written (its column index).

func randomMatrix(rng *rand.Rand, be Backend, n, nnz int) Bool {
	m := be.NewMatrix(n)
	for i := 0; i < nnz; i++ {
		m.Set(rng.Intn(n), rng.Intn(n))
	}
	return m
}

func copyInto(be Backend, src Bool) Bool {
	dst := be.NewMatrix(src.Dim())
	src.Range(func(i, j int) bool {
		dst.Set(i, j)
		return true
	})
	return dst
}

func parallelBackends() []Backend {
	return []Backend{
		DenseParallel(0), DenseParallel(3), // GOMAXPROCS and a non-divisor worker count
		SparseParallel(0), SparseParallel(3),
	}
}

// TestParallelAddMulMatchesSerial checks the parallel kernels against the
// serial sparse reference on random inputs, including the m |= m × m
// aliasing the closure loop performs.
func TestParallelAddMulMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := Sparse()
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(130) // straddles the 64-bit word boundary
		nnz := rng.Intn(4 * n)
		a := randomMatrix(rng, ref, n, nnz)
		b := randomMatrix(rng, ref, n, nnz)
		pre := randomMatrix(rng, ref, n, n/2)
		want := copyInto(ref, pre)
		wantChanged := want.AddMul(a, b)
		for _, be := range parallelBackends() {
			got := copyInto(be, pre)
			changed := got.AddMul(copyInto(be, a), copyInto(be, b))
			if changed != wantChanged || !pairsEqual(got, want) {
				t.Fatalf("trial %d backend %s: AddMul diverges from serial (changed %v vs %v)",
					trial, be.Name(), changed, wantChanged)
			}
			// Aliased self-multiplication, as in T_A |= T_A × T_A.
			selfWant := copyInto(ref, pre)
			selfWant.AddMul(selfWant, selfWant)
			selfGot := copyInto(be, pre)
			selfGot.AddMul(selfGot, selfGot)
			if !pairsEqual(selfGot, selfWant) {
				t.Fatalf("trial %d backend %s: aliased AddMul diverges from serial", trial, be.Name())
			}
		}
	}
}

func pairsEqual(a, b Bool) bool {
	pa, pb := Pairs(a), Pairs(b)
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// TestParallelAddMulConcurrentDestinations runs many AddMuls with shared
// operands into distinct destinations at once — the engine's access pattern
// when several productions read the same non-terminal matrix. Under -race
// this flushes out any hidden write to an operand. On the sparse backends b
// holds a bit in every row, so no product has a thinner right operand and
// each walks a's live rows: the path on which a is only read (AddMul).
func TestParallelAddMulConcurrentDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, goroutines = 97, 8
	for _, be := range parallelBackends() {
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

// TestParallelAddMulThroughColumnIndexConcurrently is the sparse case the
// test above leaves out: b has fewer live rows than a, so a product may
// write its left operand. Each goroutine drives its own copy of a, round
// after round, into fresh destinations, all reading one b — a frontier Δ
// several rules multiply by. The copies rent, then build their column
// index, and the rows it picks outnumber rowGrain, so the later rounds
// split product rows found through the index across workers.
func TestParallelAddMulThroughColumnIndexConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, goroutines, rounds = 1024, 8, 8
	for _, be := range []Backend{SparseParallel(0), SparseParallel(3)} {
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
					t.Fatalf("backend %s: concurrent AddMul %d, round %d diverged", be.Name(), g, r)
				}
			}
			left := lefts[g]
			if left.cols == nil {
				t.Fatalf("backend %s: %d rounds never built the left operand's column index", be.Name(), rounds)
			}
			if rows := left.productRows(b.(*SparseMatrix)); len(rows) >= len(left.live) || len(rows) <= 2*rowGrain {
				t.Fatalf("backend %s: the index picks %d of %d live rows, want fewer, and more than %d to split",
					be.Name(), len(rows), len(left.live), 2*rowGrain)
			}
		}
	}
}

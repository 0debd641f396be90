package core

import (
	"context"
	"math/rand"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// TestPeakBytesChargesEachLeftOperandOnce: S is the left operand of three
// rules whose right operands all grow pass after pass, so T_S meets a thin Δ
// three times a pass and comes to build its column index. The estimate a
// pass is checked against may exceed what the same state costs without
// column indexes — every matrix's rows, index and both frontier sets, an
// absent frontier slot and a matrix no pass has written yet at 0 bytes, a
// row at its capacity — by at most one index per distinct left operand,
// T_B's and Δ_B's, each no larger than its rows: a held index is counted
// once, in Bytes, and an operand multiplied by several rules is charged
// once.
func TestPeakBytesChargesEachLeftOperandOnce(t *testing.T) {
	cnf := grammar.MustCNF(grammar.MustParse("S -> S S | S T | S U | a\nT -> b T | b\nU -> c U | c"))
	const n = 400
	rng := rand.New(rand.NewSource(28))
	g := graph.New(n)
	for range n / 4 {
		g.AddEdge(rng.Intn(n), "a", rng.Intn(n))
	}
	for i := 1; i < n/2; i++ { // T and U gain one path length a pass
		g.AddEdge(i-1, "b", i)
		g.AddEdge(n/2+i-1, "c", n/2+i)
	}
	lefts := map[int]bool{}
	for _, r := range cnf.Binary {
		lefts[r.B] = true
	}
	rowBytes := func(m matrix.Bool) int64 {
		if m == nil || m.Bytes() == 0 {
			return 0 // a frontier slot no rule writes, or one no pass wrote yet
		}
		held := 24 * int64(n)
		matrix.RangeRows(m, func(_ int, cols []int32) bool {
			held += 4 * int64(cap(cols))
			return true
		})
		return held
	}
	sum := func(mats []matrix.Bool) (total int64) {
		for _, m := range mats {
			total += rowBytes(m)
		}
		return total
	}

	e := NewEngine(WithBackend(matrix.Sparse()))
	ix := e.Init(g, cnf)
	var bound, without int64
	indexed := false
	stats, err := e.closeWhole(context.Background(), ix, nil, func(ix *Index, f *frontier) {
		// The state the coming pass is checked in.
		state := sum(ix.mats) + sum(f.delta) + sum(f.next)
		without = max(without, state)
		for b := range lefts {
			state += rowBytes(ix.mats[b]) + rowBytes(f.delta[b])
			indexed = indexed || ix.mats[b].Bytes() > rowBytes(ix.mats[b])
		}
		bound = max(bound, state)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !indexed {
		t.Fatalf("no left operand built its column index in %d passes: not the input this test needs", stats.Iterations)
	}
	if stats.PeakBytes <= without || stats.PeakBytes > bound {
		t.Fatalf("PeakBytes %d, want above %d (no column index charged) and at most %d (one per distinct left operand)",
			stats.PeakBytes, without, bound)
	}
}

package core

import (
	"context"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// TestChainClosureConvergesLogarithmically pins down the property that
// makes the squaring closure a_cf equivalent in power to Valiant's a₊
// (paper Theorem 1): each pass T ← T ∪ T·T doubles the derivation-tree
// height covered, so on a linear input of length n (Valiant's setting) the
// fixpoint arrives after O(log n) passes, not O(n).
func TestChainClosureConvergesLogarithmically(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> S S | a") // a⁺, maximally associative
	for _, n := range []int{8, 64, 512} {
		g := graph.Chain(n+1, "a")
		_, stats := Algorithm1(matrix.Dense(), g, cnf, nil)
		// Height needed: ceil(log2 n) + 1; passes: that + 1 idle pass.
		bound := 2
		for m := 1; m < n; m *= 2 {
			bound++
		}
		if stats.Iterations > bound {
			t.Errorf("chain n=%d: %d passes, want ≤ %d (logarithmic convergence)",
				n, stats.Iterations, bound)
		}
		// And distinctly fewer than linear (meaningful from n = 64 up).
		if n >= 64 && stats.Iterations >= n/4 {
			t.Errorf("chain n=%d: %d passes looks linear", n, stats.Iterations)
		}
	}
}

// TestChainRecognitionMatchesCYK: CFPQ over a word chain is exactly string
// recognition (Valiant's original problem), cross-checked against CYK for
// every span, not just the full word.
func TestChainRecognitionMatchesCYK(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a S b | a b | S S")
	word := []string{"a", "a", "b", "b", "a", "b", "a", "b"}
	g := graph.Word(word)
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	for i := 0; i <= len(word); i++ {
		for j := i + 1; j <= len(word); j++ {
			want := cnf.Derives("S", word[i:j])
			got := ix.Has("S", i, j)
			if got != want {
				t.Errorf("span [%d,%d) %v: matrix=%v cyk=%v", i, j, word[i:j], got, want)
			}
		}
	}
}

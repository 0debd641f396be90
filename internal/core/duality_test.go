package core

import (
	"context"
	"math/rand"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// TestReversalDuality checks the structural invariant
//
//	(i, j) ∈ R_A(G, D)  ⟺  (j, i) ∈ R_A(reverse G, reverse D)
//
// on random graphs and grammars: reversing every production body and every
// edge transposes every relation. This exercises the CNF pipeline, the
// initialisation and the closure in one end-to-end algebraic check.
func TestReversalDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	grammars := []*grammar.Grammar{
		grammar.MustParse("S -> a S b | a b"),
		grammar.MustParse("S -> S S | a | b c"),
		grammar.MustParse("S -> A B\nA -> a | a A\nB -> b | B b"),
	}
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(10)
		g := graph.Random(rng, n, 3*n, []string{"a", "b", "c"})
		rg := graph.Reverse(g)
		for gi, gram := range grammars {
			cnf := grammar.MustCNF(gram)
			rcnf := grammar.MustCNF(grammar.Reverse(gram))
			fwd, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
			bwd, _, _ := NewEngine().RunContext(context.Background(), rg, rcnf)
			for _, nt := range []string{"S", "A", "B"} {
				if _, ok := cnf.Index(nt); !ok {
					continue
				}
				f := fwd.Relation(nt)
				b := bwd.Relation(nt)
				if len(f) != len(b) {
					t.Fatalf("trial %d grammar %d: |R_%s| forward %d, backward %d",
						trial, gi, nt, len(f), len(b))
				}
				bset := map[matrix.Pair]bool{}
				for _, p := range b {
					bset[p] = true
				}
				for _, p := range f {
					if !bset[matrix.Pair{I: p.J, J: p.I}] {
						t.Fatalf("trial %d grammar %d: %v ∈ R_%s forward but transpose missing",
							trial, gi, p, nt)
					}
				}
			}
		}
	}
}

func TestReverseGrammarLanguage(t *testing.T) {
	g := grammar.MustParse("S -> a b c")
	r := grammar.Reverse(g)
	c := grammar.MustCNF(r)
	if !c.Derives("S", []string{"c", "b", "a"}) {
		t.Error("reversed grammar should derive c b a")
	}
	if c.Derives("S", []string{"a", "b", "c"}) {
		t.Error("reversed grammar should not derive a b c")
	}
}

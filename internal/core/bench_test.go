package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cfpq/internal/baseline"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// benchInput builds a reproducible random graph and the Dyck grammar.
func benchInput(n int) (*graph.Graph, *grammar.CNF) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Random(rng, n, 4*n, []string{"a", "b"})
	return g, grammar.MustParseCNF("S -> a S b | a b")
}

// BenchmarkClosureBackends compares the full Algorithm 1 closure across
// matrix backends on random graphs.
func BenchmarkClosureBackends(b *testing.B) {
	for _, n := range []int{100, 400} {
		g, cnf := benchInput(n)
		for _, be := range matrix.Backends() {
			b.Run(fmt.Sprintf("%s/n=%d", be.Name(), n), func(b *testing.B) {
				e := NewEngine(WithBackend(be))
				for i := 0; i < b.N; i++ {
					e.RunContext(context.Background(), g, cnf)
				}
			})
		}
	}
}

// BenchmarkIterationSchedule is the ablation bench for the paper-literal
// snapshot loop (Algorithm1) versus the production semi-naive loop.
func BenchmarkIterationSchedule(b *testing.B) {
	g, cnf := benchInput(300)
	b.Run("semi-naive", func(b *testing.B) {
		e := NewEngine(WithBackend(matrix.Sparse()))
		for i := 0; i < b.N; i++ {
			e.RunContext(context.Background(), g, cnf)
		}
	})
	b.Run("algorithm1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Algorithm1(matrix.Sparse(), g, cnf, nil)
		}
	})
}

// BenchmarkAgainstBaselines pits the matrix engine against the Hellings
// worklist and GLL baselines on the same input.
func BenchmarkAgainstBaselines(b *testing.B) {
	g, cnf := benchInput(200)
	gram := cnf.Grammar()
	b.Run("matrix-sparse", func(b *testing.B) {
		e := NewEngine(WithBackend(matrix.Sparse()))
		for i := 0; i < b.N; i++ {
			e.RunContext(context.Background(), g, cnf)
		}
	})
	b.Run("hellings", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.Hellings(g, cnf)
		}
	})
	b.Run("gll", func(b *testing.B) {
		gll := baseline.NewGLL(gram)
		for i := 0; i < b.N; i++ {
			gll.Relation(g, "S")
		}
	})
}

// BenchmarkSinglePathClosure measures the Section 5 length-annotated
// closure.
func BenchmarkSinglePathClosure(b *testing.B) {
	g, cnf := benchInput(150)
	for i := 0; i < b.N; i++ {
		NewEngine().SinglePathContext(context.Background(), g, cnf)
	}
}

// BenchmarkPathExtraction measures witness extraction amortised over all
// pairs of the relation.
func BenchmarkPathExtraction(b *testing.B) {
	g, cnf := benchInput(150)
	px, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
	rel := px.Relation("S")
	if len(rel) == 0 {
		b.Skip("empty relation")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp := rel[i%len(rel)]
		if _, ok := px.Path("S", lp.I, lp.J); !ok {
			b.Fatal("missing path")
		}
	}
}

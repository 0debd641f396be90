// Native fuzz target for the headline correctness property. Gated on the
// go1.18 release tag (when native fuzzing landed) so the file drops out
// cleanly on older toolchains.
//
// Run with:
//
//	go test -fuzz=FuzzClosureAgreement -fuzztime=30s ./internal/core
//
// Under plain `go test` only the seed corpus below runs.

//go:build go1.18

package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"cfpq/internal/baseline"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// FuzzClosureAgreement derives a random graph and a random CNF grammar
// from the fuzzed seed and checks that both matrix backends compute
// exactly the relations of the Hellings worklist oracle — and that the
// incremental update path (closing a partial graph, then feeding the rest
// through Update) reaches the same fixpoint.
func FuzzClosureAgreement(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(12), uint8(10))
	f.Add(int64(42), uint8(9), uint8(30), uint8(14))
	f.Add(int64(7), uint8(2), uint8(3), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edges, prods uint8) {
		n := 2 + int(nodes)%12
		e := int(edges) % 40
		np := 1 + int(prods)%16
		rng := rand.New(rand.NewSource(seed))
		gram := grammar.RandomGrammar(rng, grammar.RandomConfig{
			Nonterminals: 1 + np/4,
			Terminals:    1 + np%3,
			Productions:  np,
			MaxBody:      3,
			EpsilonProb:  0.1,
		})
		cnf, err := grammar.ToCNF(gram)
		if err != nil {
			t.Fatalf("ToCNF of a generated grammar: %v\n%s", err, gram)
		}
		if cnf.NonterminalCount() == 0 {
			t.Skip("grammar normalises to nothing")
		}
		terms := gram.Terminals()
		if len(terms) == 0 {
			t.Skip("no terminals")
		}
		g := graph.Random(rng, n, e, terms)
		oracle := baseline.Hellings(g, cnf)
		for _, be := range matrix.Backends() {
			ix, _, _ := NewEngine(WithBackend(be)).RunContext(context.Background(), g, cnf)
			for a := 0; a < cnf.NonterminalCount(); a++ {
				nt := cnf.Names[a]
				got, want := ix.Relation(nt), oracle[nt]
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("backend %s: R_%s = %v, want %v\ngrammar:\n%s",
						be.Name(), nt, got, want, gram)
				}
			}
		}
		// Incremental path: close the graph minus its last edge, patch the
		// edge back in, compare against the full closure.
		all := g.Edges()
		if len(all) == 0 {
			return
		}
		partial := graph.New(g.Nodes())
		for _, ed := range all[:len(all)-1] {
			partial.AddEdge(ed.From, ed.Label, ed.To)
		}
		eng := NewEngine()
		ix, _, _ := eng.RunContext(context.Background(), partial, cnf)
		eng.UpdateContext(context.Background(), ix, all[len(all)-1])
		want, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
		if !ix.Equal(want) {
			t.Fatalf("incremental update disagrees with cold closure\ngrammar:\n%s", gram)
		}
	})
}

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

// TestMatrixEngineAgreesWithOracles is the headline correctness property:
// on random graphs and a spread of grammars, every matrix backend must
// compute exactly the relations produced by two independent algorithms —
// Hellings' worklist and the GLL-based evaluator.
func TestMatrixEngineAgreesWithOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	grams := []string{
		"S -> a S b | a b",
		"S -> S S | a",
		"S -> A B\nA -> a | a A\nB -> b | b B",
		"S -> subClassOf_r S subClassOf | type_r S type | subClassOf_r subClassOf | type_r type",
		"S -> B subClassOf | subClassOf\nB -> subClassOf_r B subClassOf | subClassOf_r subClassOf",
	}
	labels := []string{"a", "b", "subClassOf", "subClassOf_r", "type", "type_r"}
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(12)
		g := graph.Random(rng, n, 3*n, labels)
		for gi, src := range grams {
			gram := grammar.MustParse(src)
			cnf := grammar.MustCNF(gram)
			oracle := baseline.Hellings(g, cnf)
			gll := baseline.NewGLL(gram).Relation(g, "S")
			if !reflect.DeepEqual(oracle["S"], gll) {
				t.Fatalf("trial %d grammar %d: oracles disagree: Hellings %v, GLL %v",
					trial, gi, oracle["S"], gll)
			}
			for _, be := range matrix.Backends() {
				ix, _, _ := NewEngine(WithBackend(be)).RunContext(context.Background(), g, cnf)
				for a := 0; a < cnf.NonterminalCount(); a++ {
					nt := cnf.Names[a]
					got := ix.Relation(nt)
					want := oracle[nt]
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d grammar %d backend %s: R_%s = %v, want %v",
							trial, gi, be.Name(), nt, got, want)
					}
				}
			}
		}
	}
}

// TestRandomCNFGrammarsAgainstHellings drives every matrix backend with
// fully random CNF grammars (not just hand-picked ones) on random graphs
// against the worklist oracle: both backends must produce exactly the
// relations Hellings computes, for every non-terminal.
func TestRandomCNFGrammarsAgainstHellings(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := grammar.RandomConfig{
		Nonterminals: 4,
		Terminals:    3,
		Productions:  12,
		MaxBody:      3,
		EpsilonProb:  0.05,
	}
	for trial := 0; trial < 20; trial++ {
		gram := grammar.RandomGrammar(rng, cfg)
		cnf, err := grammar.ToCNF(gram)
		if err != nil {
			t.Fatal(err)
		}
		if cnf.NonterminalCount() == 0 {
			continue
		}
		n := 2 + rng.Intn(8)
		g := graph.Random(rng, n, 3*n, gram.Terminals())
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
					t.Fatalf("trial %d backend %s: R_%s = %v, want %v\ngrammar:\n%s",
						trial, be.Name(), nt, got, want, gram)
				}
			}
		}
	}
}

// TestRandomGrammarsIncrementalAgreement checks the dynamic path on random
// inputs: withhold a slice of a random graph's edges, close the rest, then
// feed the withheld edges through Engine.Update — the patched index must
// equal a cold closure of the full graph, on every backend. The same update
// run on a Fork must arrive at the same index and leave the index it was
// forked from exactly as it was (the version readers would still hold), and
// so must a second generation forked from the fork and grown by a node.
func TestRandomGrammarsIncrementalAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := grammar.DefaultRandomConfig()
	for trial := 0; trial < 12; trial++ {
		gram := grammar.RandomGrammar(rng, cfg)
		cnf, err := grammar.ToCNF(gram)
		if err != nil {
			t.Fatal(err)
		}
		if cnf.NonterminalCount() == 0 {
			continue
		}
		n := 3 + rng.Intn(8)
		full := graph.Random(rng, n, 4*n, gram.Terminals())
		edges := full.Edges()
		hold := 1 + rng.Intn(3)
		if hold > len(edges) {
			hold = len(edges)
		}
		partial := graph.New(full.Nodes())
		for _, e := range edges[:len(edges)-hold] {
			partial.AddEdge(e.From, e.Label, e.To)
		}
		for _, be := range matrix.Backends() {
			e := NewEngine(WithBackend(be))
			ix, _, _ := e.RunContext(context.Background(), partial, cnf)
			published := ix.Clone()
			fork := ix.Fork()
			e.UpdateContext(context.Background(), fork, edges[len(edges)-hold:]...)
			if !ix.Equal(published) {
				t.Fatalf("trial %d backend %s: an update on a fork changed the index it was forked from\ngrammar:\n%s",
					trial, be.Name(), gram)
			}
			e.UpdateContext(context.Background(), ix, edges[len(edges)-hold:]...)
			want, _, _ := NewEngine(WithBackend(be)).RunContext(context.Background(), full, cnf)
			if !ix.Equal(want) || !fork.Equal(want) {
				t.Fatalf("trial %d backend %s: incremental update disagrees with cold closure (in place %v, on a fork %v)\ngrammar:\n%s",
					trial, be.Name(), ix.Equal(want), fork.Equal(want), gram)
			}
			grown := fork.Fork()
			e.UpdateContext(context.Background(), grown, graph.Edge{From: rng.Intn(n), Label: edges[0].Label, To: n})
			if !fork.Equal(want) || grown.Nodes() != n+1 {
				t.Fatalf("trial %d backend %s: a growing update on a second-generation fork changed its origin\ngrammar:\n%s",
					trial, be.Name(), gram)
			}
		}
	}
}

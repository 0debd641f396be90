package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// coldUpdate closes g by the semi-naive path alone: UpdateContext on an
// empty index over g's node range, seeded with every edge. The whole
// initialised index is the first frontier, so the shared step runs on
// full-size frontiers rather than the few bits of a typical patch.
func coldUpdate(t *testing.T, e *Engine, g *graph.Graph, cnf *grammar.CNF) (*Index, Stats, *Delta) {
	t.Helper()
	ix := e.Init(graph.New(g.Nodes()), cnf)
	stats, delta, err := e.UpdateContext(context.Background(), ix, g.Edges()...)
	if err != nil {
		t.Fatal(err)
	}
	return ix, stats, delta
}

func TestDeltaIterationMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	grams := []*grammar.CNF{
		grammar.MustParseCNF("S -> a S b | a b"),
		grammar.MustParseCNF(paperCNF),
		grammar.MustParseCNF("S -> S S | a"),
	}
	labels := []string{"a", "b", "subClassOf", "subClassOf_r", "type", "type_r"}
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(15)
		g := graph.Random(rng, n, 3*n, labels)
		for gi, cnf := range grams {
			ref, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
			for _, be := range matrix.Backends() {
				ix, _, delta := coldUpdate(t, NewEngine(WithBackend(be)), g, cnf)
				for a := 0; a < cnf.NonterminalCount(); a++ {
					nt := cnf.Names[a]
					if !reflect.DeepEqual(ix.Relation(nt), ref.Relation(nt)) {
						t.Fatalf("trial %d grammar %d backend %s: semi-naive closure disagrees on R_%s",
							trial, gi, be.Name(), nt)
					}
					// Starting from nothing, everything is newly derived.
					if !reflect.DeepEqual(delta.Pairs(nt), ref.Relation(nt)) {
						t.Fatalf("trial %d grammar %d backend %s: delta of R_%s is not the whole relation",
							trial, gi, be.Name(), nt)
					}
				}
			}
		}
	}
}

func TestDeltaIterationPaperExampleRelations(t *testing.T) {
	cnf := grammar.MustParseCNF(paperCNF)
	ix, stats, _ := coldUpdate(t, NewEngine(), paperGraph(), cnf)
	want := []matrix.Pair{{I: 0, J: 0}, {I: 0, J: 2}, {I: 1, J: 2}}
	if got := ix.Relation("S"); !reflect.DeepEqual(got, want) {
		t.Errorf("R_S = %v, want %v", got, want)
	}
	if stats.Iterations == 0 || stats.Products == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

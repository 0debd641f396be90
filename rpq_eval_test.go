package cfpq

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"cfpq/internal/graph"
	"cfpq/internal/rpq"
)

// These tests moved here from internal/rpq when RPQ evaluation was folded
// into the public Engine (the reduction lives in internal/rpq; evaluating
// the reduced grammar is an Expr Request to Engine.Do). The BFS
// product-graph oracle stays in internal/rpq.

func rpqEval(t *testing.T, g *Graph, expr string, emptyPaths bool) []Pair {
	t.Helper()
	res, err := NewEngine(Sparse).Do(context.Background(), Request{Graph: g, Expr: expr, EmptyPaths: emptyPaths})
	if err != nil {
		t.Fatal(err)
	}
	return res.AllPairs()
}

func TestRPQChain(t *testing.T) {
	g := graph.Chain(5, "a") // 0→1→2→3→4
	want := []Pair{{I: 0, J: 2}, {I: 1, J: 3}, {I: 2, J: 4}}
	if pairs := rpqEval(t, g, "a a", false); !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestRPQStar(t *testing.T) {
	g := graph.Chain(4, "a")
	// Without empty paths: all i<j pairs.
	want := []Pair{
		{I: 0, J: 1}, {I: 0, J: 2}, {I: 0, J: 3},
		{I: 1, J: 2}, {I: 1, J: 3},
		{I: 2, J: 3},
	}
	if pairs := rpqEval(t, g, "a*", false); !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
	if withEmpty := rpqEval(t, g, "a*", true); len(withEmpty) != len(want)+4 {
		t.Errorf("with empty paths: %v", withEmpty)
	}
}

func TestRPQEmptyLanguageAndEpsilonOnly(t *testing.T) {
	g := graph.Chain(3, "a")
	// `b` never matches on an a-chain.
	if pairs := rpqEval(t, g, "b", false); pairs != nil {
		t.Errorf("pairs = %v, want nil", pairs)
	}
	// `b?` matches only ε here.
	want := []Pair{{I: 0, J: 0}, {I: 1, J: 1}, {I: 2, J: 2}}
	if pairs := rpqEval(t, g, "b?", true); !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestRPQOnCycle(t *testing.T) {
	g := graph.Cycle(3, "a")
	// Three a-steps on a 3-cycle return to the start: exactly (v, v).
	want := []Pair{{I: 0, J: 0}, {I: 1, J: 1}, {I: 2, J: 2}}
	if pairs := rpqEval(t, g, "a a a", false); !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

// TestRPQReductionAgainstBFS is the headline property: the CFPQ reduction
// (an Expr Request to Engine.Do) and the product-graph BFS must agree on random graphs and a
// spread of expressions, with and without empty paths, on every backend.
func TestRPQReductionAgainstBFS(t *testing.T) {
	exprs := []string{
		"a", "a b", "a | b", "a*", "a+", "a? b",
		"(a | b)* c", "a (b a)* b", "(a a)+",
		"subClassOf_r* subClassOf", "(a | b | c)+",
	}
	rng := rand.New(rand.NewSource(81))
	labels := []string{"a", "b", "c", "subClassOf", "subClassOf_r"}
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		n := 2 + rng.Intn(10)
		g := graph.Random(rng, n, 3*n, labels)
		for _, expr := range exprs {
			r := rpq.MustParseRegex(expr)
			for _, includeEmpty := range []bool{false, true} {
				want := rpq.EvaluateBFS(g, r, rpq.Options{IncludeEmptyPaths: includeEmpty})
				for _, be := range Backends() {
					res, err := NewEngine(be).Do(ctx, Request{Graph: g, Expr: expr, EmptyPaths: includeEmpty})
					if err != nil {
						t.Fatal(err)
					}
					if got := res.AllPairs(); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d expr %q empty=%v backend %s:\ncfpq %v\nbfs  %v",
							trial, expr, includeEmpty, be.Name(), got, want)
					}
				}
			}
		}
	}
}

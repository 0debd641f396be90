package cfpq

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// testEngine is the default engine the public-API tests evaluate with.
var testEngine = NewEngine(Sparse)

func TestQuickstartFromDoc(t *testing.T) {
	// The doc.go example must work exactly as written.
	eng := NewEngine(Sparse)
	g := NewGraph(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	gram, err := ParseGrammar("S -> a S b | a b")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Do(context.Background(), Request{Graph: g, Grammar: gram, Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	if pairs, want := res.AllPairs(), []Pair{{I: 0, J: 2}}; !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestEvaluateAndSinglePath(t *testing.T) {
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	cnf, err := ToCNF(MustParseGrammar("S -> a b"))
	if err != nil {
		t.Fatal(err)
	}
	ix, stats, err := testEngine.Evaluate(context.Background(), g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Has("S", 0, 2) {
		t.Error("(0,2) missing")
	}
	if stats.Iterations == 0 {
		t.Error("no iterations recorded")
	}
	px, err := testEngine.SinglePath(context.Background(), g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	path, ok := px.Path("S", 0, 2)
	if !ok || len(path) != 2 {
		t.Errorf("path = %v, ok=%v", path, ok)
	}
}

func TestAllPathsPublicAPI(t *testing.T) {
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	cnf, _ := ToCNF(MustParseGrammar("S -> a b"))
	ix, _, err := testEngine.Evaluate(context.Background(), g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := testEngine.AllPaths(context.Background(), g, ix, "S", 0, 2, AllPathsOptions{})
	if err != nil || len(paths) != 1 {
		t.Errorf("paths = %v, err = %v", paths, err)
	}
	if _, err := testEngine.AllPaths(context.Background(), g, ix, "Nope", 0, 2, AllPathsOptions{}); err == nil {
		t.Error("unknown non-terminal should error")
	}
}

func TestWithEmptyPaths(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, "a", 1)
	gram := MustParseGrammar("S -> a S | eps")
	res, err := testEngine.Do(context.Background(), Request{Graph: g, Grammar: gram, Nonterminal: "S", EmptyPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Pair{{I: 0, J: 0}, {I: 0, J: 1}, {I: 1, J: 1}}
	if pairs := res.AllPairs(); !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestLoadNTriplesPublicAPI(t *testing.T) {
	g, ids, err := LoadNTriples(strings.NewReader("<x> <p> <y> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 2 || g.EdgeCount() != 2 {
		t.Errorf("graph = %v", g)
	}
	gram := MustParseGrammar("S -> p_r")
	res, err := testEngine.Do(context.Background(), Request{Graph: g, Grammar: gram, Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	if pairs := res.AllPairs(); len(pairs) != 1 || pairs[0].I != ids["y"] || pairs[0].J != ids["x"] {
		t.Errorf("inverse-edge query = %v (ids %v)", pairs, ids)
	}
}

func TestQueryErrors(t *testing.T) {
	g := NewGraph(1)
	gram := MustParseGrammar("S -> a")
	if _, err := testEngine.Do(context.Background(), Request{Graph: g, Grammar: gram, Nonterminal: "Missing"}); err == nil {
		t.Error("unknown start non-terminal should error")
	}
}

package cfpq

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestRPQFacade(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	pairs, err := testEngine.RPQ(context.Background(), g, "a* b")
	if err != nil {
		t.Fatal(err)
	}
	want := []Pair{{I: 0, J: 3}, {I: 1, J: 3}, {I: 2, J: 3}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
	// Another backend gives the same result.
	dense, err := NewEngine(Dense).RPQ(context.Background(), g, "a* b")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense, want) {
		t.Errorf("dense pairs = %v, want %v", dense, want)
	}
	if _, err := testEngine.RPQ(context.Background(), g, "a* ("); err == nil {
		t.Error("bad expression should error")
	}
}

func TestRPQEmptyPathsFacade(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, "a", 1)
	pairs, err := testEngine.RPQ(context.Background(), g, "a*", WithEmptyPaths())
	if err != nil {
		t.Fatal(err)
	}
	want := []Pair{{I: 0, J: 0}, {I: 0, J: 1}, {I: 1, J: 1}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestConjunctiveFacade(t *testing.T) {
	cg, err := ParseConjunctive(`
		S -> A B & D C
		A -> a A | a
		B -> b B c | b c
		C -> c C | c
		D -> a D b | a b
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Chain spelling a a b b c c (aⁿbⁿcⁿ with n = 2).
	labels := []string{"a", "a", "b", "b", "c", "c"}
	g := NewGraph(len(labels) + 1)
	for i, l := range labels {
		g.AddEdge(i, l, i+1)
	}
	pairs, err := testEngine.QueryConjunctive(context.Background(), g, cg, "S")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pairs {
		if p.I == 0 && p.J == len(labels) {
			found = true
		}
	}
	if !found {
		t.Errorf("aabbcc not recognised: %v", pairs)
	}
}

// TestExtensionsRunTheEngine: conjunctive and single-path evaluation are the
// engine's closure, so on every backend a traced conjunctive request
// reports its passes and real Stats (all zero while it ran a loop of its
// own), and the memory budget — per call or engine-wide — governs both.
func TestExtensionsRunTheEngine(t *testing.T) {
	ctx := context.Background()
	cg, err := ParseConjunctive("S -> A B & D C\nA -> a A | a\nB -> b B c | b c\nC -> c C | c\nD -> a D b | a b")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(0)
	for i, l := range []string{"a", "a", "b", "b", "c", "c"} {
		g.AddEdge(i, l, i+1)
	}
	cnf, _ := ToCNF(MustParseGrammar("S -> a S b | a b"))
	for _, be := range Backends() {
		req := Request{Graph: g, Conjunctive: cg, Nonterminal: "S", Trace: true}
		res, err := NewEngine(be).Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if want := []Pair{{I: 0, J: 6}}; !reflect.DeepEqual(res.AllPairs(), want) {
			t.Errorf("%s: pairs = %v, want %v", be.Name(), res.AllPairs(), want)
		}
		if st := res.Stats; st.Iterations == 0 || st.Products == 0 || st.PeakBytes == 0 || st.Duration == 0 {
			t.Errorf("%s: conjunctive Stats = %+v, want the closure's work", be.Name(), st)
		}
		if ps := res.Explain.Passes; len(ps) != res.Stats.Iterations+1 || ps[0].Phase != "full" {
			t.Errorf("%s: %d pass events for %d passes (first %+v)", be.Name(), len(ps), res.Stats.Iterations, ps)
		}

		var mbe *MemoryBudgetError
		req.Options = []Option{WithMemoryBudget(16)}
		if _, err := NewEngine(be).Do(ctx, req); !errors.As(err, &mbe) {
			t.Errorf("%s: conjunctive Do under 16 bytes: %v, want *MemoryBudgetError", be.Name(), err)
		}
		tight := NewEngine(be, WithMemoryBudget(16))
		if _, err := tight.QueryConjunctive(ctx, g, cg, "S"); !errors.As(err, &mbe) {
			t.Errorf("%s: QueryConjunctive under an engine budget: %v, want *MemoryBudgetError", be.Name(), err)
		}
		if _, err := tight.SinglePath(ctx, g, cnf); !errors.As(err, &mbe) {
			t.Errorf("%s: SinglePath under an engine budget: %v, want *MemoryBudgetError", be.Name(), err)
		}
		if _, err := tight.ShortestPath(ctx, g, cnf); !errors.As(err, &mbe) {
			t.Errorf("%s: ShortestPath under an engine budget: %v, want *MemoryBudgetError", be.Name(), err)
		}
	}
}

func TestShortestPathFacade(t *testing.T) {
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	cnf, _ := ToCNF(MustParseGrammar("S -> a S b | a b"))
	px, err := testEngine.ShortestPath(context.Background(), g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := px.Length("S", 0, 2); !ok || l != 2 {
		t.Errorf("Length = %d, %v", l, ok)
	}
}

func TestUpdateFacade(t *testing.T) {
	gram := MustParseGrammar("S -> a b")
	cnf, _ := ToCNF(gram)
	for _, be := range []Backend{Sparse, Dense} {
		eng := NewEngine(be)
		g := NewGraph(3)
		g.AddEdge(0, "a", 1)
		ix, _, err := eng.Evaluate(context.Background(), g, cnf)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Count("S") != 0 {
			t.Fatal("premature pair")
		}
		g.AddEdge(1, "b", 2)
		if _, err := eng.Update(context.Background(), ix, Edge{From: 1, Label: "b", To: 2}); err != nil {
			t.Fatal(err)
		}
		if !ix.Has("S", 0, 2) {
			t.Error("(0,2) missing after Update")
		}
	}
}

func TestReverseGraphFacade(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, "a", 1)
	r := ReverseGraph(g)
	if !r.HasEdge(1, "a", 0) {
		t.Error("edge not reversed")
	}
}

package cfpq

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// chainGraph builds the word graph a^k b^k: nodes 0..2k, a-edges then
// b-edges. With S -> a S b | a b the closure needs ~k passes, giving
// cancellation something to interrupt.
func chainGraph(k int) *Graph {
	g := NewGraph(2*k + 1)
	for i := 0; i < k; i++ {
		g.AddEdge(i, "a", i+1)
	}
	for i := k; i < 2*k; i++ {
		g.AddEdge(i, "b", i+1)
	}
	return g
}

func TestEngineBackendsAgree(t *testing.T) {
	ctx := context.Background()
	g := chainGraph(4)
	gram := MustParseGrammar("S -> a S b | a b")
	var ref []Pair
	for i, be := range Backends() {
		pairs, err := NewEngine(be).Query(ctx, g, gram, "S")
		if err != nil {
			t.Fatalf("backend %s: %v", be.Name(), err)
		}
		if i == 0 {
			ref = pairs
			continue
		}
		if !reflect.DeepEqual(pairs, ref) {
			t.Errorf("backend %s disagrees: %v vs %v", be.Name(), pairs, ref)
		}
	}
}

// TestBackendByName: the names of the retired row-parallel kernels decode
// to the backend of the same representation.
func TestBackendByName(t *testing.T) {
	for name, want := range map[string]string{
		"dense": "dense", "dense-parallel": "dense",
		"sparse": "sparse", "sparse-parallel": "sparse",
	} {
		be, err := BackendByName(name)
		if err != nil || be.Name() != want {
			t.Errorf("BackendByName(%q) = %v, %v; want %s", name, be.Name(), err, want)
		}
	}
	if _, err := BackendByName("gpu"); err == nil {
		t.Error("unknown backend should error")
	}
	var zero Backend
	if zero.Name() != "sparse" {
		t.Errorf("zero Backend = %q, want sparse", zero.Name())
	}
}

func TestEvaluateCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := chainGraph(4)
	cnf, _ := ToCNF(MustParseGrammar("S -> a S b | a b"))
	ix, _, err := NewEngine(Sparse).Evaluate(ctx, g, cnf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ix != nil {
		t.Error("cancelled Evaluate must not return an index")
	}
}

// TestEvaluateCancelMidClosure cancels from the Trace.Pass hook after a few
// passes: the closure must abort at the next pass boundary and return
// ctx.Err(), well before the fixpoint the chain needs.
func TestEvaluateCancelMidClosure(t *testing.T) {
	const k = 40 // the closure needs ~k passes on a^k b^k
	const stopAt = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := chainGraph(k)
	cnf, _ := ToCNF(MustParseGrammar("S -> a S b | a b"))
	ix, stats, err := NewEngine(Sparse).Evaluate(ctx, g, cnf,
		WithTracer(Trace{Pass: func(ev PassEvent) {
			if ev.Pass == stopAt {
				cancel()
			}
		}}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ix != nil {
		t.Error("cancelled Evaluate must not return an index")
	}
	if stats.Iterations != stopAt {
		t.Errorf("closure ran %d passes after cancelling at %d — not prompt", stats.Iterations, stopAt)
	}
	// Sanity: uncancelled, the same closure needs far more passes.
	_, full, err := NewEngine(Sparse).Evaluate(context.Background(), g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations <= stopAt+1 {
		t.Fatalf("test is vacuous: full closure takes only %d passes", full.Iterations)
	}
}

func TestCancelledQuerySurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := chainGraph(3)
	gram := MustParseGrammar("S -> a S b | a b")
	eng := NewEngine(Sparse)
	if _, err := eng.Query(ctx, g, gram, "S"); !errors.Is(err, context.Canceled) {
		t.Errorf("Query err = %v", err)
	}
	cnf, _ := ToCNF(gram)
	if _, err := eng.SinglePath(ctx, g, cnf); !errors.Is(err, context.Canceled) {
		t.Errorf("SinglePath err = %v", err)
	}
	if _, err := eng.ShortestPath(ctx, g, cnf); !errors.Is(err, context.Canceled) {
		t.Errorf("ShortestPath err = %v", err)
	}
	if _, err := eng.RPQ(ctx, g, "a+ b"); !errors.Is(err, context.Canceled) {
		t.Errorf("RPQ err = %v", err)
	}
	cg, _ := ParseConjunctive("S -> A A & A A\nA -> a | a A")
	if _, err := eng.QueryConjunctive(ctx, g, cg, "S"); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryConjunctive err = %v", err)
	}
	ix, _, _ := eng.Evaluate(context.Background(), g, cnf)
	if _, err := eng.Update(ctx, ix, Edge{From: 0, Label: "a", To: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("Update err = %v", err)
	}
}

// TestUpdatePreservesBackend: the index records its backend at build time
// and updates keep it, whatever backend the updating engine was built with.
func TestUpdatePreservesBackend(t *testing.T) {
	gram := MustParseGrammar("S -> a b")
	cnf, _ := ToCNF(gram)
	for _, be := range []Backend{Sparse, Dense} {
		g := NewGraph(3)
		g.AddEdge(0, "a", 1)
		ix, _, err := NewEngine(be).Evaluate(context.Background(), g, cnf)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.Backend().Name(); got != be.Name() {
			t.Fatalf("index backend = %q, want %q", got, be.Name())
		}
		// Update takes the kernel from the index, not from the engine
		// that runs it.
		if _, err := NewEngine(Sparse).Update(context.Background(), ix, Edge{From: 1, Label: "b", To: 2}); err != nil {
			t.Fatal(err)
		}
		if got := ix.Backend().Name(); got != be.Name() {
			t.Errorf("after Update: index backend = %q, want %q", got, be.Name())
		}
		if !ix.Has("S", 0, 2) {
			t.Errorf("backend %s: (0,2) missing after Update", be.Name())
		}
	}
}

// TestUpdateGrowsNodeSet: edges beyond the index's node range used to be a
// documented caller error; they now transparently resize the matrices, and
// the patched index agrees with a cold rebuild of the enlarged graph.
func TestUpdateGrowsNodeSet(t *testing.T) {
	gram := MustParseGrammar("S -> a S b | a b")
	cnf, _ := ToCNF(gram)
	for _, be := range []Backend{Sparse, Dense} {
		g := NewGraph(0)
		g.AddEdge(0, "a", 1)
		g.AddEdge(1, "a", 2)
		g.AddEdge(2, "b", 3)
		eng := NewEngine(be)
		ix, _, err := eng.Evaluate(context.Background(), g, cnf)
		if err != nil {
			t.Fatal(err)
		}
		grow := Edge{From: 3, Label: "b", To: 7} // node 7 is new
		if _, err := eng.Update(context.Background(), ix, grow); err != nil {
			t.Fatal(err)
		}
		if ix.Nodes() != 8 {
			t.Fatalf("backend %s: index has %d nodes, want 8", be.Name(), ix.Nodes())
		}
		g.AddEdge(grow.From, grow.Label, grow.To)
		cold, _, err := eng.Evaluate(context.Background(), g, cnf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ix.Relation("S"), cold.Relation("S")) {
			t.Errorf("backend %s: grown update %v disagrees with cold rebuild %v",
				be.Name(), ix.Relation("S"), cold.Relation("S"))
		}
	}
}

func TestEngineAllPathsUnknownNonterminal(t *testing.T) {
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	cnf, _ := ToCNF(MustParseGrammar("S -> a b"))
	eng := NewEngine(Sparse)
	ix, _, _ := eng.Evaluate(context.Background(), g, cnf)
	if _, err := eng.AllPaths(context.Background(), g, ix, "Nope", 0, 2, AllPathsOptions{}); err == nil {
		t.Error("unknown non-terminal should error")
	}
	paths, err := eng.AllPaths(context.Background(), g, ix, "S", 0, 2, AllPathsOptions{})
	if err != nil || len(paths) != 1 {
		t.Errorf("paths = %v, err = %v", paths, err)
	}
}

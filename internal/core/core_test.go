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

// balancedCNF is the Dyck-style grammar S → a S b | a b in CNF.
func balancedCNF(t *testing.T) *grammar.CNF {
	t.Helper()
	return grammar.MustParseCNF("S -> a S b | a b")
}

func TestQueryOnWordGraph(t *testing.T) {
	// CFPQ on a word graph is string recognition: relation (0, len(w))
	// exists iff the word is in the language.
	cnf := balancedCNF(t)
	e := NewEngine()
	cases := []struct {
		word []string
		want bool
	}{
		{[]string{"a", "b"}, true},
		{[]string{"a", "a", "b", "b"}, true},
		{[]string{"a", "a", "a", "b", "b", "b"}, true},
		{[]string{"a", "b", "a", "b"}, false},
		{[]string{"a"}, false},
		{[]string{"b", "a"}, false},
	}
	for _, c := range cases {
		g := graph.Word(c.word)
		ix, _, _ := e.RunContext(context.Background(), g, cnf)
		if got := ix.Has("S", 0, len(c.word)); got != c.want {
			t.Errorf("word %v: recognised=%v, want %v", c.word, got, c.want)
		}
	}
}

func TestQueryOnTwoCycles(t *testing.T) {
	// The classic CFPQ stress instance: cycles of length 2 (a) and 3 (b)
	// meeting at node 0, queried with S → a S b | a b. Yannakakis
	// conjectured Valiant's technique would not generalise to such cyclic
	// inputs; the paper's closure handles them.
	g := graph.TwoCycles(2, 3, "a", "b")
	cnf := balancedCNF(t)
	for _, be := range matrix.Backends() {
		e := NewEngine(WithBackend(be))
		ix, stats, _ := e.RunContext(context.Background(), g, cnf)
		// Known result for this instance: every a-cycle node relates to
		// every b-cycle node (including shared node 0) — aⁿbⁿ paths exist
		// for suitable n since gcd(2,3)=1.
		got := ix.Count("S")
		if got == 0 {
			t.Fatalf("%s: empty R_S on two-cycles", be.Name())
		}
		// Specific well-known pair: (0,0) via a²b²·... needs n ≡ 0 mod 2
		// and n ≡ 0 mod 3 → n = 6: a⁶ loops the a-cycle 3×, b⁶ loops the
		// b-cycle 2×.
		if !ix.Has("S", 0, 0) {
			t.Errorf("%s: (0,0) missing from R_S", be.Name())
		}
		if stats.Iterations < 2 {
			t.Errorf("%s: suspiciously few iterations: %+v", be.Name(), stats)
		}
	}
}

func TestBackendsAndIterationModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grams := []*grammar.CNF{
		balancedCNF(t),
		grammar.MustParseCNF(paperCNF),
		grammar.MustParseCNF("S -> S S | a"),
		grammar.MustParseCNF("A -> a B\nB -> b | b A"),
	}
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(15)
		g := graph.Random(rng, n, 3*n, []string{"a", "b", "subClassOf", "subClassOf_r", "type", "type_r"})
		for gi, cnf := range grams {
			ref, _ := Algorithm1(matrix.Dense(), g, cnf, nil)
			for _, be := range matrix.Backends() {
				engine, _, _ := NewEngine(WithBackend(be)).RunContext(context.Background(), g, cnf)
				snapshot, _ := Algorithm1(be, g, cnf, nil)
				for name, ix := range map[string]*Index{"engine": engine, "Algorithm1": snapshot} {
					for a := 0; a < cnf.NonterminalCount(); a++ {
						nt := cnf.Names[a]
						if !reflect.DeepEqual(ix.Relation(nt), ref.Relation(nt)) {
							t.Fatalf("trial %d grammar %d: %s %s disagrees on R_%s",
								trial, gi, be.Name(), name, nt)
						}
					}
				}
			}
		}
	}
}

func TestIndexAccessors(t *testing.T) {
	cnf := balancedCNF(t)
	g := graph.Word([]string{"a", "b"})
	ix, stats, _ := NewEngine().RunContext(context.Background(), g, cnf)
	if ix.Nodes() != 3 {
		t.Errorf("Nodes = %d", ix.Nodes())
	}
	if ix.CNF() != cnf {
		t.Error("CNF accessor broken")
	}
	if ix.Matrix("Nope") != nil {
		t.Error("Matrix of unknown non-terminal should be nil")
	}
	if ix.Count("Nope") != 0 || ix.Relation("Nope") != nil {
		t.Error("unknown non-terminal should have empty relation")
	}
	counts := ix.Counts()
	if counts["S"] != 1 {
		t.Errorf("Counts[S] = %d, want 1", counts["S"])
	}
	if stats.Products == 0 {
		t.Error("stats should count products")
	}
	cp := ix.Clone()
	if !cp.Equal(ix) {
		t.Error("Clone not Equal")
	}
	cp.Matrix("S").Set(2, 2)
	if cp.Equal(ix) {
		t.Error("Clone shares matrices")
	}
}

func TestIndexEqualShapeMismatch(t *testing.T) {
	cnf := balancedCNF(t)
	a, _, _ := NewEngine().RunContext(context.Background(), graph.Word([]string{"a", "b"}), cnf)
	b, _, _ := NewEngine().RunContext(context.Background(), graph.Word([]string{"a", "b", "b"}), cnf)
	if a.Equal(b) {
		t.Error("indexes over different node counts must differ")
	}
}

func TestFormatMatrixPaperStyle(t *testing.T) {
	cnf := grammar.MustParseCNF(paperCNF)
	e := NewEngine(WithBackend(matrix.Dense()))
	ix := e.Init(paperGraph(), cnf)
	got := ix.FormatMatrix()
	want := "" +
		"[ {S1} {S3} .    ]\n" +
		"[ .    .    {S3} ]\n" +
		"[ {S2} .    {S4} ]\n"
	if got != want {
		t.Errorf("FormatMatrix:\n%s\nwant:\n%s", got, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	cnf := balancedCNF(t)
	for _, be := range matrix.Backends() {
		ix, stats, _ := NewEngine(WithBackend(be)).RunContext(context.Background(), graph.New(0), cnf)
		if ix.Count("S") != 0 {
			t.Errorf("%s: non-empty relation on empty graph", be.Name())
		}
		// A cold build's first pass runs whatever the index holds — as
		// Algorithm 1's does — and, finding nothing, is also its last.
		if stats.Iterations != 1 {
			t.Errorf("%s: %d iterations on empty graph, want 1", be.Name(), stats.Iterations)
		}
	}
}

func TestGraphWithIrrelevantLabels(t *testing.T) {
	cnf := balancedCNF(t)
	g := graph.New(3)
	g.AddEdge(0, "x", 1) // label not in grammar
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	if !ix.Has("S", 0, 2) {
		t.Error("(0,2) should be in R_S")
	}
	if ix.Count("S") != 1 {
		t.Errorf("R_S = %v", ix.Relation("S"))
	}
}

func TestMultiEdgeInitialization(t *testing.T) {
	// Paper: both labels of parallel edges contribute to T[i][j].
	cnf := grammar.MustParseCNF("A -> x\nB -> y")
	g := graph.New(2)
	g.AddEdge(0, "x", 1)
	g.AddEdge(0, "y", 1)
	ix := NewEngine().Init(g, cnf)
	if !ix.Has("A", 0, 1) || !ix.Has("B", 0, 1) {
		t.Error("both parallel-edge labels must initialise the cell")
	}
}

package graph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestAddEdgeGrowsNodes(t *testing.T) {
	g := New(0)
	g.AddEdge(3, "a", 7)
	if g.Nodes() != 8 {
		t.Errorf("Nodes = %d, want 8", g.Nodes())
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	if !g.HasEdge(3, "a", 7) {
		t.Error("edge (3,a,7) missing")
	}
	if g.HasEdge(7, "a", 3) {
		t.Error("reverse edge should not exist")
	}
}

func TestParallelEdgesKept(t *testing.T) {
	g := New(2)
	g.AddEdge(0, "a", 1)
	g.AddEdge(0, "a", 1)
	g.AddEdge(0, "b", 1)
	if g.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d, want 3 (multigraph keeps parallels)", g.EdgeCount())
	}
	if got := len(g.EdgesWithLabel("a")); got != 2 {
		t.Errorf("a-edges = %d, want 2", got)
	}
}

func TestLabelsSorted(t *testing.T) {
	g := New(2)
	g.AddEdge(0, "z", 1)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "m", 0)
	if got, want := g.Labels(), []string{"a", "m", "z"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Labels = %v, want %v", got, want)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(2)
	g.AddEdge(0, "a", 1)
	c := g.Clone()
	c.AddEdge(1, "b", 0)
	if g.EdgeCount() != 1 {
		t.Errorf("original mutated: EdgeCount = %d", g.EdgeCount())
	}
	if c.EdgeCount() != 2 {
		t.Errorf("clone EdgeCount = %d, want 2", c.EdgeCount())
	}
}

func TestDisjointUnion(t *testing.T) {
	a := New(2)
	a.AddEdge(0, "x", 1)
	b := New(3)
	b.AddEdge(1, "y", 2)
	shift := a.DisjointUnion(b)
	if shift != 2 {
		t.Errorf("shift = %d, want 2", shift)
	}
	if a.Nodes() != 5 {
		t.Errorf("Nodes = %d, want 5", a.Nodes())
	}
	if !a.HasEdge(3, "y", 4) {
		t.Error("shifted edge (3,y,4) missing")
	}
}

func TestRepeat(t *testing.T) {
	g := Cycle(3, "a")
	r := Repeat(g, 4)
	if r.Nodes() != 12 {
		t.Errorf("Nodes = %d, want 12", r.Nodes())
	}
	if r.EdgeCount() != 12 {
		t.Errorf("EdgeCount = %d, want 12", r.EdgeCount())
	}
	// Copies must be disjoint: no edge crosses a 3-node block boundary.
	for _, e := range r.Edges() {
		if e.From/3 != e.To/3 {
			t.Errorf("edge %v crosses copies", e)
		}
	}
}

func TestRepeatPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Repeat(g, 0) should panic")
		}
	}()
	Repeat(New(1), 0)
}

func TestChainWordCycle(t *testing.T) {
	c := Chain(4, "a")
	if c.EdgeCount() != 3 || !c.HasEdge(0, "a", 1) || !c.HasEdge(2, "a", 3) {
		t.Errorf("bad chain: %v", c.Edges())
	}
	w := Word([]string{"a", "b", "a"})
	if w.Nodes() != 4 || !w.HasEdge(1, "b", 2) {
		t.Errorf("bad word graph: %v", w.Edges())
	}
	cy := Cycle(3, "x")
	if !cy.HasEdge(2, "x", 0) {
		t.Error("cycle must wrap around")
	}
}

func TestTwoCycles(t *testing.T) {
	g := TwoCycles(2, 3, "a", "b")
	if g.Nodes() != 4 {
		t.Errorf("Nodes = %d, want 4", g.Nodes())
	}
	if got := len(g.EdgesWithLabel("a")); got != 2 {
		t.Errorf("a-edges = %d, want 2", got)
	}
	if got := len(g.EdgesWithLabel("b")); got != 3 {
		t.Errorf("b-edges = %d, want 3", got)
	}
	// Both cycles pass through node 0.
	foundA, foundB := false, false
	for _, e := range g.EdgesWithLabel("a") {
		if e.To == 0 {
			foundA = true
		}
	}
	for _, e := range g.EdgesWithLabel("b") {
		if e.To == 0 {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Error("both cycles must close at node 0")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(7)), 10, 30, []string{"a", "b"})
	b := Random(rand.New(rand.NewSource(7)), 10, 30, []string{"a", "b"})
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Error("Random with same seed should be identical")
	}
	if a.EdgeCount() != 30 {
		t.Errorf("EdgeCount = %d, want 30", a.EdgeCount())
	}
}

func TestAdjacency(t *testing.T) {
	g := New(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(0, "b", 2)
	g.AddEdge(1, "a", 2)
	adj := NewAdjacency(g)
	if got := len(adj.Out(0)); got != 2 {
		t.Errorf("Out(0) = %d edges, want 2", got)
	}
	if got := len(adj.In(2)); got != 2 {
		t.Errorf("In(2) = %d edges, want 2", got)
	}
	if got := len(adj.Out(2)); got != 0 {
		t.Errorf("Out(2) = %d edges, want 0", got)
	}
}

func TestParseNTriples(t *testing.T) {
	src := `# a comment
<http://ex/a> <http://ex/p> <http://ex/b> .
_:blank <http://ex/p> "a literal" .

<http://ex/b> <http://ex/q> <http://ex/c>.
`
	triples, err := ParseNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 3 {
		t.Fatalf("got %d triples, want 3", len(triples))
	}
	want := Triple{Subject: "http://ex/a", Predicate: "http://ex/p", Object: "http://ex/b"}
	if triples[0] != want {
		t.Errorf("triple[0] = %v, want %v", triples[0], want)
	}
	if triples[1].Subject != "_:blank" || triples[1].Object != "a literal" {
		t.Errorf("triple[1] = %v", triples[1])
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	cases := []string{
		"<a> <b> .",       // two terms
		"<a <b> <c> .",    // unterminated IRI
		`<a> <b> "oops .`, // unterminated literal
	}
	for _, src := range cases {
		if _, err := ParseNTriples(strings.NewReader(src)); err == nil {
			t.Errorf("ParseNTriples(%q) succeeded, want error", src)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	triples := []Triple{
		{"a", "p", "b"},
		{"b", "q", "c"},
	}
	var b strings.Builder
	if err := WriteNTriples(&b, triples); err != nil {
		t.Fatal(err)
	}
	got, err := ParseNTriples(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, triples) {
		t.Errorf("round trip: %v != %v", got, triples)
	}
}

func TestFromTriplesAddsInverses(t *testing.T) {
	g, ids := FromTriples([]Triple{{"x", "subClassOf", "y"}})
	if g.EdgeCount() != 2 {
		t.Fatalf("EdgeCount = %d, want 2 (edge + inverse)", g.EdgeCount())
	}
	x, y := ids["x"], ids["y"]
	if !g.HasEdge(x, "subClassOf", y) {
		t.Error("forward edge missing")
	}
	if !g.HasEdge(y, "subClassOf"+InverseSuffix, x) {
		t.Error("inverse edge missing")
	}
}

func TestNodeNames(t *testing.T) {
	g, ids := FromTriples([]Triple{{"x", "p", "y"}})
	names := NodeNames(g.Nodes(), ids)
	if names[ids["x"]] != "x" || names[ids["y"]] != "y" {
		t.Errorf("NodeNames = %v", names)
	}
}

func TestLoadNTriples(t *testing.T) {
	src := "<a> <p> <b> .\n<b> <p> <c> .\n"
	g, ids, err := LoadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 3 {
		t.Errorf("Nodes = %d, want 3", g.Nodes())
	}
	if g.EdgeCount() != 4 {
		t.Errorf("EdgeCount = %d, want 4 (2 triples × 2 directions)", g.EdgeCount())
	}
	if !g.HasEdge(ids["c"], "p"+InverseSuffix, ids["b"]) {
		t.Error("inverse edge missing after load")
	}
}

func TestPreferentialAttachment(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := PreferentialAttachment(rng, 200, 2, []string{"a", "b"})
	if g.Nodes() != 200 {
		t.Fatalf("Nodes = %d", g.Nodes())
	}
	// Node v attaches min(v, 2) edges: 1 + 2×198 = 397.
	if g.EdgeCount() != 397 {
		t.Errorf("EdgeCount = %d, want 397", g.EdgeCount())
	}
	// Scale-free shape: the max in-degree should clearly exceed the mean.
	indeg := make([]int, g.Nodes())
	for _, e := range g.Edges() {
		indeg[e.To]++
	}
	max := 0
	for _, d := range indeg {
		if d > max {
			max = d
		}
	}
	if max < 8 {
		t.Errorf("max in-degree %d: no hub formed", max)
	}
	// Determinism.
	again := PreferentialAttachment(rand.New(rand.NewSource(9)), 200, 2, []string{"a", "b"})
	if !reflect.DeepEqual(g.Edges(), again.Edges()) {
		t.Error("PreferentialAttachment must be deterministic per seed")
	}
}

func TestPreferentialAttachmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n=1 should panic")
		}
	}()
	PreferentialAttachment(rand.New(rand.NewSource(1)), 1, 1, []string{"a"})
}

func TestStatsAndString(t *testing.T) {
	g := New(3)
	g.AddEdge(0, "a", 1)
	s := g.Stats()
	if s.Nodes != 3 || s.Edges != 1 || s.Labels != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if str := g.String(); !strings.Contains(str, "nodes: 3") {
		t.Errorf("String = %q", str)
	}
}

// TestForkExtendsBesideTheOriginal: edges added to a fork — into shared
// spare capacity, a reallocated list, a new label, new nodes — never show
// through the graph it was forked from, and the fork holds both.
func TestForkExtendsBesideTheOriginal(t *testing.T) {
	g := New(3)
	for i := 0; i < 5; i++ { // leaves spare capacity behind the "a" list
		g.AddEdge(i%3, "a", (i+1)%3)
	}
	g.AddEdge(0, "b", 1)
	before := g.Clone()
	fork := g.Fork()
	for i := 0; i < 20; i++ {
		fork.AddEdge(i%3, "a", 3+i)
	}
	fork.AddEdge(2, "c", 0)
	if g.Nodes() != before.Nodes() || g.EdgeCount() != before.EdgeCount() || !reflect.DeepEqual(g.Edges(), before.Edges()) {
		t.Fatalf("extending a fork changed its origin: %v, was %v", g, before)
	}
	if g.HasEdge(2, "c", 0) || g.HasEdge(0, "a", 3) {
		t.Fatal("the origin sees the fork's edges")
	}
	if fork.EdgeCount() != before.EdgeCount()+21 || fork.Nodes() != 23 || !fork.HasEdge(0, "b", 1) || !fork.HasEdge(1, "a", 22) {
		t.Fatalf("fork = %v, want the origin's %d edges plus 21", fork, before.EdgeCount())
	}
}

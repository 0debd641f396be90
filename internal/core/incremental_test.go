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

// TestUpdateMatchesRecompute is the dynamic-CFPQ correctness property: for
// random graphs, closing a prefix of the edges and then Update-ing the rest
// one by one must equal closing the whole graph from scratch — for every
// backend and every non-terminal.
func TestUpdateMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	grams := []*grammar.CNF{
		grammar.MustParseCNF("S -> a S b | a b"),
		grammar.MustParseCNF(paperCNF),
		grammar.MustParseCNF("S -> S S | a"),
	}
	labels := []string{"a", "b", "subClassOf", "subClassOf_r", "type", "type_r"}
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(10)
		full := graph.Random(rng, n, 3*n, labels)
		edges := full.Edges()
		split := rng.Intn(len(edges))
		prefix := graph.New(n)
		for _, ed := range edges[:split] {
			prefix.AddEdge(ed.From, ed.Label, ed.To)
		}
		for gi, cnf := range grams {
			for _, be := range matrix.Backends() {
				e := NewEngine(WithBackend(be))
				want, _, _ := e.RunContext(context.Background(), full, cnf)
				got, _, _ := e.RunContext(context.Background(), prefix, cnf)
				for _, ed := range edges[split:] {
					e.UpdateContext(context.Background(), got, ed)
				}
				for a := 0; a < cnf.NonterminalCount(); a++ {
					nt := cnf.Names[a]
					if !reflect.DeepEqual(got.Relation(nt), want.Relation(nt)) {
						t.Fatalf("trial %d grammar %d backend %s: incremental R_%s = %v, want %v",
							trial, gi, be.Name(), nt, got.Relation(nt), want.Relation(nt))
					}
				}
			}
		}
	}
}

func TestUpdateBatch(t *testing.T) {
	// Updating with a batch of edges must equal one-by-one updates.
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.Word([]string{"a", "a", "b", "b"})
	e := NewEngine()
	// Start from an empty graph of the same size.
	empty := graph.New(g.Nodes())
	batch, _, _ := e.RunContext(context.Background(), empty, cnf)
	single, _, _ := e.RunContext(context.Background(), empty, cnf)
	e.UpdateContext(context.Background(), batch, g.Edges()...)
	for _, ed := range g.Edges() {
		e.UpdateContext(context.Background(), single, ed)
	}
	if !batch.Equal(single) {
		t.Error("batch and single-edge updates disagree")
	}
	if !batch.Has("S", 0, 4) {
		t.Error("(0,4) missing after updates")
	}
}

func TestUpdateNoOp(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a b")
	g := graph.Word([]string{"a", "b"})
	e := NewEngine()
	ix, _, _ := e.RunContext(context.Background(), g, cnf)
	before := ix.Clone()
	// Re-adding an existing edge changes nothing.
	stats, _, _ := e.UpdateContext(context.Background(), ix, graph.Edge{From: 0, Label: "a", To: 1})
	if stats.Iterations != 0 {
		t.Errorf("re-adding an existing edge ran %d passes", stats.Iterations)
	}
	// Adding an edge with an irrelevant label changes nothing.
	stats, _, _ = e.UpdateContext(context.Background(), ix, graph.Edge{From: 1, Label: "zzz", To: 2})
	if stats.Iterations != 0 {
		t.Errorf("irrelevant label ran %d passes", stats.Iterations)
	}
	if !ix.Equal(before) {
		t.Error("no-op updates mutated the index")
	}
}

func TestUpdateCreatesLongRangePairs(t *testing.T) {
	// Close a broken chain, then add the missing middle edge; distant
	// pairs must appear.
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.New(6)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	// gap: 2 -b-> 3 missing initially
	g.AddEdge(3, "b", 4)
	g.AddEdge(4, "b", 5)
	e := NewEngine()
	ix, _, _ := e.RunContext(context.Background(), g, cnf)
	if ix.Count("S") != 0 {
		t.Fatalf("no pairs expected before the bridge, got %v", ix.Relation("S"))
	}
	stats, _, _ := e.UpdateContext(context.Background(), ix, graph.Edge{From: 2, Label: "b", To: 3})
	if stats.Iterations == 0 {
		t.Fatal("bridge edge should trigger propagation")
	}
	// a-edges 0→1→2, b-edges 2→3→4→5: aⁿbⁿ paths are a b (1→2→3) and
	// a a b b (0→…→4).
	want := []matrix.Pair{{I: 0, J: 4}, {I: 1, J: 3}}
	if got := ix.Relation("S"); !reflect.DeepEqual(got, want) {
		t.Errorf("R_S = %v, want %v", got, want)
	}
}

// TestFrontierOnlyForRuleHeads: S → a S b | a b lowers to two binary rules,
// S → A S' | A B and S' → S B, whose heads S and S' are the only
// non-terminals a pass writes; A and B are only read. A cold build — whose
// frontier is the whole index, seeded nowhere — holds frontier matrices for
// S and its helper only, on every pass and on each backend.
func TestFrontierOnlyForRuleHeads(t *testing.T) {
	cnf := grammar.MustCNF(grammar.MustParse("S -> a S b | a b"))
	heads := map[int]bool{}
	for _, r := range cnf.Binary {
		heads[r.A] = true
	}
	if s, _ := cnf.Index("S"); len(heads) != 2 || !heads[s] || cnf.NonterminalCount() != 4 {
		t.Fatalf("the grammar lowered to %v: not the shape this test needs", cnf)
	}
	g := graph.New(8)
	for i := range 4 {
		g.AddEdge(i, "a", i+1)
		g.AddEdge(i+4, "b", (i+5)%8)
	}
	for _, be := range matrix.Backends() {
		e := NewEngine(WithBackend(be))
		ix := e.Init(g, cnf)
		passes := 0
		stats, err := e.closeWhole(context.Background(), ix, nil, func(_ *Index, f *frontier) {
			passes++
			for a := range f.delta {
				if want := heads[a]; (f.delta[a] != nil) != want || (f.next[a] != nil) != want {
					t.Errorf("%s: pass %d: frontier matrices for %s: delta %v, next %v; want both iff a rule writes it",
						be.Name(), passes, cnf.Names[a], f.delta[a] != nil, f.next[a] != nil)
				}
			}
		})
		if err != nil || stats.Iterations < 3 || ix.Count("S") == 0 {
			t.Fatalf("%s: %d passes, %d S-pairs, err %v: not the build this test needs", be.Name(), stats.Iterations, ix.Count("S"), err)
		}
	}
}

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
// S and its helper only, on every pass and on each backend. And a sparse
// frontier matrix holds a row list — reports bytes — exactly when some pass
// wrote it: when a product of a rule it is the head of came out non-empty,
// replayed here from the state each pass started in. The heads alternate,
// so some frontier matrix no pass writes holds none for the whole build.
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
	clones := func(mats []matrix.Bool) []matrix.Bool {
		out := make([]matrix.Bool, len(mats))
		for a, m := range mats {
			if m != nil {
				out[a] = m.Clone()
			}
		}
		return out
	}
	for _, be := range matrix.Backends() {
		e := NewEngine(WithBackend(be))
		ix := e.Init(g, cnf)
		// The state the coming pass starts in, and which frontier matrices
		// — by identity: delta and next swap — some pass wrote.
		var prevT, prevDelta []matrix.Bool
		whole := true
		wrote := map[matrix.Bool]bool{}
		nonEmpty := func(x, y matrix.Bool) bool {
			p := be.NewMatrix(ix.n)
			p.AddMul(x, y)
			return p.Nnz() > 0
		}
		passes := 0
		stats, err := e.closeWhole(context.Background(), ix, nil, func(_ *Index, f *frontier) {
			passes++
			if prevT != nil { // the pass just run wrote its products into what is now delta
				for _, r := range cnf.Binary {
					switch {
					case whole && nonEmpty(prevT[r.B], prevT[r.C]),
						!whole && prevDelta[r.B] != nil && nonEmpty(prevDelta[r.B], prevT[r.C]),
						!whole && prevDelta[r.C] != nil && nonEmpty(prevT[r.B], prevDelta[r.C]):
						wrote[f.delta[r.A]] = true
					}
				}
			}
			for a := range f.delta {
				if want := heads[a]; (f.delta[a] != nil) != want || (f.next[a] != nil) != want {
					t.Errorf("%s: pass %d: frontier matrices for %s: delta %v, next %v; want both iff a rule writes it",
						be.Name(), passes, cnf.Names[a], f.delta[a] != nil, f.next[a] != nil)
				}
				for side, m := range map[string]matrix.Bool{"delta": f.delta[a], "next": f.next[a]} {
					if m != nil && be.Name() == "sparse" && (m.Bytes() > 0) != wrote[m] {
						t.Errorf("%s: pass %d: %s of %s reports %d bytes, written by a pass: %v",
							be.Name(), passes, side, cnf.Names[a], m.Bytes(), wrote[m])
					}
				}
			}
			prevT, prevDelta, whole = clones(ix.mats), clones(f.delta), f.whole
		})
		if err != nil || stats.Iterations < 3 || ix.Count("S") == 0 {
			t.Fatalf("%s: %d passes, %d S-pairs, err %v: not the build this test needs", be.Name(), stats.Iterations, ix.Count("S"), err)
		}
		if len(wrote) == 0 || len(wrote) >= 2*len(heads) {
			t.Errorf("%s: passes wrote %d of the %d frontier matrices, want some but not all", be.Name(), len(wrote), 2*len(heads))
		}
	}
}

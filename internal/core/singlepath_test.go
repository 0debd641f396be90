package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

func TestPathIndexMatchesBooleanClosure(t *testing.T) {
	// Theorem 2 + Theorem 5: the single-path closure derives exactly the
	// same relations as the Boolean closure.
	rng := rand.New(rand.NewSource(21))
	grams := []*grammar.CNF{
		grammar.MustParseCNF("S -> a S b | a b"),
		grammar.MustParseCNF(paperCNF),
		grammar.MustParseCNF("S -> S S | a"),
	}
	labels := []string{"a", "b", "subClassOf", "subClassOf_r", "type", "type_r"}
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(10)
		g := graph.Random(rng, n, 3*n, labels)
		for gi, cnf := range grams {
			ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
			px, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
			for a := 0; a < cnf.NonterminalCount(); a++ {
				nt := cnf.Names[a]
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if ix.Has(nt, i, j) != px.Has(nt, i, j) {
							t.Fatalf("trial %d grammar %d: (%s,%d,%d): bool=%v path=%v",
								trial, gi, nt, i, j, ix.Has(nt, i, j), px.Has(nt, i, j))
						}
					}
				}
			}
		}
	}
}

func TestPathWitnessesAreValid(t *testing.T) {
	// For every pair in every relation: the extracted path must be
	// contiguous, have exactly the recorded length, and its label word
	// must derive from the queried non-terminal (checked by CYK).
	rng := rand.New(rand.NewSource(22))
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(8)
		g := graph.Random(rng, n, 3*n, []string{"a", "b"})
		px, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
		for _, lp := range px.Relation("S") {
			path, ok := px.Path("S", lp.I, lp.J)
			if !ok {
				t.Fatalf("trial %d: Path(S,%d,%d) failed but pair is in relation", trial, lp.I, lp.J)
			}
			if len(path) != lp.Length {
				t.Fatalf("trial %d: path length %d ≠ recorded %d", trial, len(path), lp.Length)
			}
			if err := ValidatePath(path, lp.I, lp.J); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !cnf.Derives("S", Labels(path)) {
				t.Fatalf("trial %d: witness labels %v not in L(S)", trial, Labels(path))
			}
		}
	}
}

func TestPathOnCycle(t *testing.T) {
	// On a cycle the witness for a fixed pair may wind around; lengths are
	// still finite and paths valid.
	g := graph.TwoCycles(2, 3, "a", "b")
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	px, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
	rel := px.Relation("S")
	if len(rel) == 0 {
		t.Fatal("empty relation on two-cycles")
	}
	for _, lp := range rel {
		path, ok := px.Path("S", lp.I, lp.J)
		if !ok {
			t.Fatalf("no path for %v", lp)
		}
		if err := ValidatePath(path, lp.I, lp.J); err != nil {
			t.Fatal(err)
		}
		if !cnf.Derives("S", Labels(path)) {
			t.Fatalf("invalid witness %v for %v", Labels(path), lp)
		}
	}
	// (0,0) requires winding: a⁶b⁶ → length 12.
	if l, ok := px.Length("S", 0, 0); !ok || l < 4 {
		t.Errorf("length(S,0,0) = %d,%v; want a wound path", l, ok)
	}
}

func TestPathIndexUnknownNonterminal(t *testing.T) {
	g := graph.Chain(2, "a")
	cnf := grammar.MustParseCNF("S -> a")
	px, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
	if _, ok := px.Length("Z", 0, 1); ok {
		t.Error("unknown non-terminal should have no lengths")
	}
	if _, ok := px.Path("Z", 0, 1); ok {
		t.Error("unknown non-terminal should have no paths")
	}
	if px.Relation("Z") != nil {
		t.Error("unknown non-terminal should have nil relation")
	}
}

func TestPathLengthOneIsEdge(t *testing.T) {
	g := graph.Chain(2, "a")
	cnf := grammar.MustParseCNF("S -> a")
	px, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
	path, ok := px.Path("S", 0, 1)
	if !ok || len(path) != 1 || path[0].Label != "a" {
		t.Fatalf("Path = %v, %v", path, ok)
	}
}

func TestValidatePathErrors(t *testing.T) {
	e1 := graph.Edge{From: 0, Label: "a", To: 1}
	e2 := graph.Edge{From: 2, Label: "b", To: 3}
	if err := ValidatePath([]graph.Edge{e1, e2}, 0, 3); err == nil {
		t.Error("discontiguous path should fail validation")
	}
	if err := ValidatePath([]graph.Edge{e1}, 0, 2); err == nil {
		t.Error("wrong endpoint should fail validation")
	}
	if err := ValidatePath([]graph.Edge{e1}, 0, 1); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
}

// TestPathIndexNodesOutOfRange: a node the graph does not have is in no
// relation. With lengths in one flat array, row n of a non-terminal used to
// read row 0 of the next one — Length("S#1", n, 1) on the word aabb answered
// (1, true) — and the last non-terminal's panicked.
func TestPathIndexNodesOutOfRange(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.Word([]string{"a", "a", "b", "b"})
	px, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
	n := g.Nodes()
	for _, nt := range cnf.Names {
		for _, c := range [][2]int{{n, 1}, {n, 0}, {n + 1, 2}, {2 * n, 1}, {1, n}, {0, n + 3}, {-1, 1}, {1, -1}, {-n, -n}, {1 << 40, 1}} {
			if l, ok := px.Length(nt, c[0], c[1]); ok {
				t.Errorf("Length(%s, %d, %d) = %d, true; the graph has %d nodes", nt, c[0], c[1], l, n)
			}
			if px.Has(nt, c[0], c[1]) {
				t.Errorf("Has(%s, %d, %d) on a graph of %d nodes", nt, c[0], c[1], n)
			}
			if path, ok := px.Path(nt, c[0], c[1]); ok {
				t.Errorf("Path(%s, %d, %d) = %v on a graph of %d nodes", nt, c[0], c[1], path, n)
			}
		}
	}
}

// ambiguousInstance is a seeded instance on which most pairs have several
// splits of different lengths: a⁺ under S → S S | a on a random graph.
func ambiguousInstance() (*graph.Graph, *grammar.CNF) {
	return graph.Random(rand.New(rand.NewSource(23)), 12, 40, []string{"a"}), grammar.MustParseCNF("S -> S S | a")
}

// TestSinglePathDeterministic: the recorded length of a pair with several
// splits is the first in rule and column order, not whichever a map
// iteration visits first — two builds agree.
func TestSinglePathDeterministic(t *testing.T) {
	g, cnf := ambiguousInstance()
	first, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
	distinct := map[int]bool{}
	for _, lp := range first.Relation("S") {
		distinct[lp.Length] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("instance is not ambiguous enough: lengths %v", distinct)
	}
	for run := 0; run < 5; run++ {
		again, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
		if !reflect.DeepEqual(first.Relation("S"), again.Relation("S")) {
			t.Fatalf("run %d recorded different lengths:\n%v\n%v", run, first.Relation("S"), again.Relation("S"))
		}
	}
}

// TestSinglePathBackendsAgree: the single-path closure is the engine's, so
// it runs on every backend — same relation as the Boolean closure, same
// lengths, and every witness a valid path deriving from S.
func TestSinglePathBackendsAgree(t *testing.T) {
	g, cnf := ambiguousInstance()
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	var ref []LengthPair
	for _, be := range matrix.Backends() {
		px, stats, err := NewEngine(WithBackend(be)).SinglePathContext(context.Background(), g, cnf)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Iterations == 0 || stats.Products == 0 || stats.PeakBytes == 0 {
			t.Errorf("%s: stats %+v, want the closure's work", be.Name(), stats)
		}
		rel := px.Relation("S")
		if ref == nil {
			ref = rel
		}
		if !reflect.DeepEqual(rel, ref) {
			t.Fatalf("%s disagrees:\n%v\n%v", be.Name(), rel, ref)
		}
		if len(rel) != ix.Count("S") {
			t.Fatalf("%s: %d pairs, the Boolean closure has %d", be.Name(), len(rel), ix.Count("S"))
		}
		for _, lp := range rel {
			path, ok := px.Path("S", lp.I, lp.J)
			if !ok || len(path) != lp.Length {
				t.Fatalf("%s: Path(S,%d,%d) = %v, %v; recorded length %d", be.Name(), lp.I, lp.J, path, ok, lp.Length)
			}
			if err := ValidatePath(path, lp.I, lp.J); err != nil {
				t.Fatalf("%s: %v", be.Name(), err)
			}
			if !cnf.Derives("S", Labels(path)) {
				t.Fatalf("%s: witness labels %v not in L(S)", be.Name(), Labels(path))
			}
		}
	}
}

// TestSinglePathHonoursBudgetAndCancellation: what the semantics gained by
// running the engine's loop. A budget below the working set rejects the
// evaluation before a matrix is allocated; a cancellation lands between
// passes, the first-found build's and the shortest relaxation's alike.
func TestSinglePathHonoursBudgetAndCancellation(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	const n = 1 << 12
	g := graph.Chain(n, "a")
	for _, be := range matrix.Backends() {
		e := NewEngine(WithBackend(be), WithMemoryBudget(be.EmptyBytes(n)))
		var err error
		got, _ := allocated(func() { _, _, err = e.SinglePathContext(context.Background(), g, cnf) })
		var mbe *MemoryBudgetError
		if !errors.As(err, &mbe) {
			t.Fatalf("%s: single-path build under one matrix's budget: %v, want *MemoryBudgetError", be.Name(), err)
		}
		if got >= be.EmptyBytes(n) {
			t.Errorf("%s: rejected build allocated %d bytes, a matrix is %d", be.Name(), got, be.EmptyBytes(n))
		}
	}

	// TwoCycles(2, 3) needs several passes; cancel in the first one's event.
	g = graph.TwoCycles(2, 3, "a", "b")
	for _, run := range []func(*Engine, context.Context, *graph.Graph, *grammar.CNF) (*PathIndex, Stats, error){
		(*Engine).SinglePathContext, (*Engine).ShortestPathContext,
	} {
		ctx, cancel := context.WithCancel(context.Background())
		events := 0
		e := NewEngine(WithTracer(&Trace{Pass: func(ev PassEvent) {
			if events++; ev.Pass == 1 {
				cancel()
			}
		}}))
		px, stats, err := run(e, ctx, g, cnf)
		if !errors.Is(err, context.Canceled) || px != nil {
			t.Fatalf("cancelled build: index %v, err %v", px, err)
		}
		if events != 2 || stats.Iterations != 1 {
			t.Errorf("cancelled in pass 1: %d events, %d passes; want the seeding, one pass, and a stop", events, stats.Iterations)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	px, _, _ := NewEngine().SinglePathContext(ctx, g, cnf)
	cancel()
	if err := px.shorten(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("shorten under a cancelled context: %v", err)
	}
}

package core

import (
	"context"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

func TestAllPathsOnWordGraph(t *testing.T) {
	// Unambiguous grammar, acyclic graph: exactly one path per pair.
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.Word([]string{"a", "a", "b", "b"})
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	paths, _ := ix.AllPathsContext(context.Background(), g, "S", 0, 4, AllPathsOptions{})
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1: %v", len(paths), paths)
	}
	if err := ValidatePath(paths[0], 0, 4); err != nil {
		t.Fatal(err)
	}
	if got := Labels(paths[0]); len(got) != 4 {
		t.Errorf("labels = %v", got)
	}
	// Inner pair too.
	inner, _ := ix.AllPathsContext(context.Background(), g, "S", 1, 3, AllPathsOptions{})
	if len(inner) != 1 || len(inner[0]) != 2 {
		t.Errorf("inner paths = %v", inner)
	}
}

func TestAllPathsCycleBounded(t *testing.T) {
	// On the two-cycles instance the all-path semantics is infinite; the
	// enumeration must respect MaxPaths and produce valid, distinct,
	// length-ordered paths.
	g := graph.TwoCycles(2, 3, "a", "b")
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	paths, _ := ix.AllPathsContext(context.Background(), g, "S", 0, 0, AllPathsOptions{MaxPaths: 5, MaxLength: 40})
	if len(paths) == 0 {
		t.Fatal("expected paths for (S,0,0)")
	}
	if len(paths) > 5 {
		t.Fatalf("MaxPaths violated: %d", len(paths))
	}
	seen := map[string]bool{}
	prevLen := 0
	for _, p := range paths {
		if err := ValidatePath(p, 0, 0); err != nil {
			t.Fatal(err)
		}
		if !cnf.Derives("S", Labels(p)) {
			t.Fatalf("path labels %v not in L(S)", Labels(p))
		}
		k := pathKey(p)
		if seen[k] {
			t.Fatalf("duplicate path %v", Labels(p))
		}
		seen[k] = true
		if len(p) < prevLen {
			t.Fatal("paths not in nondecreasing length order")
		}
		prevLen = len(p)
	}
}

func TestAllPathsAmbiguousGrammarDistinct(t *testing.T) {
	// S → S S | a on a chain: hugely ambiguous derivations, but the set of
	// distinct paths from 0 to n is exactly one per n.
	cnf := grammar.MustParseCNF("S -> S S | a")
	g := graph.Chain(5, "a")
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	for end := 1; end <= 4; end++ {
		paths, _ := ix.AllPathsContext(context.Background(), g, "S", 0, end, AllPathsOptions{MaxLength: 6})
		if len(paths) != 1 {
			t.Errorf("(0,%d): got %d distinct paths, want 1", end, len(paths))
		}
	}
}

func TestAllPathsAbsentPair(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a b")
	g := graph.Word([]string{"a", "b"})
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	if got, _ := ix.AllPathsContext(context.Background(), g, "S", 1, 0, AllPathsOptions{}); got != nil {
		t.Errorf("paths for absent pair: %v", got)
	}
	if got, _ := ix.AllPathsContext(context.Background(), g, "Zed", 0, 2, AllPathsOptions{}); got != nil {
		t.Errorf("paths for unknown non-terminal: %v", got)
	}
}

func TestAllPathsMultipleWitnesses(t *testing.T) {
	// Diamond: two distinct a-edges from 0 to {1,2}, then b-edges to 3.
	// S → a b has two witnesses 0→1→3 and 0→2→3.
	g := graph.New(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(0, "a", 2)
	g.AddEdge(1, "b", 3)
	g.AddEdge(2, "b", 3)
	cnf := grammar.MustParseCNF("S -> a b")
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	paths, _ := ix.AllPathsContext(context.Background(), g, "S", 0, 3, AllPathsOptions{})
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2: %v", len(paths), paths)
	}
	for _, p := range paths {
		if err := ValidatePath(p, 0, 3); err != nil {
			t.Fatal(err)
		}
	}
}

package core

import (
	"context"
	"math/rand"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

func TestShortestPathNeverLongerThanFirstFound(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(8)
		g := graph.Random(rng, n, 3*n, []string{"a", "b"})
		first, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
		short, _, _ := NewEngine().ShortestPathContext(context.Background(), g, cnf)
		for _, lp := range first.Relation("S") {
			sl, ok := short.Length("S", lp.I, lp.J)
			if !ok {
				t.Fatalf("trial %d: pair %v missing from shortest index", trial, lp)
			}
			if sl > lp.Length {
				t.Fatalf("trial %d: shortest %d > first-found %d for (%d,%d)",
					trial, sl, lp.Length, lp.I, lp.J)
			}
		}
		// Same relation both ways.
		if len(first.Relation("S")) != len(short.Relation("S")) {
			t.Fatalf("trial %d: relation sizes differ", trial)
		}
	}
}

func TestShortestPathIsMinimal(t *testing.T) {
	// AllPaths enumerates in nondecreasing length order, so its first
	// result is a minimal witness; the shortest index must match it.
	rng := rand.New(rand.NewSource(92))
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(5)
		g := graph.Random(rng, n, 3*n, []string{"a", "b"})
		ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
		short, _, _ := NewEngine().ShortestPathContext(context.Background(), g, cnf)
		for _, lp := range short.Relation("S") {
			paths, _ := ix.AllPathsContext(context.Background(), g, "S", lp.I, lp.J, AllPathsOptions{MaxPaths: 1, MaxLength: 64})
			if len(paths) == 0 {
				t.Fatalf("trial %d: no enumerated path for %v", trial, lp)
			}
			if len(paths[0]) != lp.Length {
				t.Fatalf("trial %d: shortest index says %d, enumeration found %d for (%d,%d)",
					trial, lp.Length, len(paths[0]), lp.I, lp.J)
			}
		}
	}
}

func TestShortestPathExtraction(t *testing.T) {
	// On two-cycles, witnesses wind; shortest extraction must still return
	// valid minimal-length paths.
	g := graph.TwoCycles(2, 3, "a", "b")
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	px, _, _ := NewEngine().ShortestPathContext(context.Background(), g, cnf)
	for _, lp := range px.Relation("S") {
		path, ok := px.Path("S", lp.I, lp.J)
		if !ok {
			t.Fatalf("no path for %v", lp)
		}
		if len(path) != lp.Length {
			t.Fatalf("extracted length %d ≠ recorded %d", len(path), lp.Length)
		}
		if err := ValidatePath(path, lp.I, lp.J); err != nil {
			t.Fatal(err)
		}
		if !cnf.Derives("S", Labels(path)) {
			t.Fatalf("invalid witness %v", Labels(path))
		}
	}
}

func TestShortestOnWordGraphEqualsFirstFound(t *testing.T) {
	// On an unambiguous acyclic instance both indexes coincide.
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.Word([]string{"a", "a", "a", "b", "b", "b"})
	first, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
	short, _, _ := NewEngine().ShortestPathContext(context.Background(), g, cnf)
	for _, lp := range first.Relation("S") {
		sl, _ := short.Length("S", lp.I, lp.J)
		if sl != lp.Length {
			t.Errorf("(%d,%d): first %d, shortest %d", lp.I, lp.J, lp.Length, sl)
		}
	}
}

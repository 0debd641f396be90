package core

import (
	"context"
	"math/rand"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
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
			px, _ := NewPathIndexContext(context.Background(), g, cnf)
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
		px, _ := NewPathIndexContext(context.Background(), g, cnf)
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
	px, _ := NewPathIndexContext(context.Background(), g, cnf)
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
	px, _ := NewPathIndexContext(context.Background(), g, cnf)
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
	px, _ := NewPathIndexContext(context.Background(), g, cnf)
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

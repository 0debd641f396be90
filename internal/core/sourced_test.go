package core

import (
	"context"
	"math/rand"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// sameGen is the paper's same-generation query over subClassOf/type edges.
func sameGen(t *testing.T) *grammar.Grammar {
	t.Helper()
	return grammar.MustParse(`
		S -> subClassOf_r S subClassOf | subClassOf_r subClassOf
		S -> type_r S type | type_r type
	`)
}

// TestQueryFromAgreesWithFilteredQuery checks, on random graphs and the
// same-generation grammar, that the source-restricted evaluation returns
// exactly the full query filtered to source rows — for every backend and
// for source sets of several sizes (including ones that saturate).
func TestQueryFromAgreesWithFilteredQuery(t *testing.T) {
	cnf := grammar.MustCNF(sameGen(t))
	rng := rand.New(rand.NewSource(7))
	for _, be := range matrix.Backends() {
		e := NewEngine(WithBackend(be))
		for trial := 0; trial < 8; trial++ {
			n := 5 + rng.Intn(20)
			g := graph.Random(rng, n, 3*n, []string{"subClassOf", "subClassOf_r", "type", "type_r"})
			fullIx, _, err := e.RunContext(context.Background(), g, cnf)
			if err != nil {
				t.Fatal(err)
			}
			full := fullIx.Relation("S")
			for _, k := range []int{1, 2, n / 2, n} {
				if k < 1 {
					k = 1
				}
				sources := make([]int, 0, k)
				seen := map[int]bool{}
				for len(sources) < k {
					s := rng.Intn(n)
					if !seen[s] {
						seen[s] = true
						sources = append(sources, s)
					}
				}
				ix, _, err := e.RunFromContext(context.Background(), g, cnf, sources)
				if err != nil {
					t.Fatal(err)
				}
				got := sourceRows(ix.Relation("S"), seen)
				var want []matrix.Pair
				for _, p := range full {
					if seen[p.I] {
						want = append(want, p)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s n=%d k=%d: got %d pairs, want %d", be.Name(), n, k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d k=%d: pair %d: got %v, want %v", be.Name(), n, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// sourceRows keeps the pairs leaving a source: the rows of a
// source-restricted closure that answer the query (the other active rows
// are the frontier's).
func sourceRows(pairs []matrix.Pair, sources map[int]bool) []matrix.Pair {
	var out []matrix.Pair
	for _, p := range pairs {
		if sources[p.I] {
			out = append(out, p)
		}
	}
	return out
}

// TestRunFromActiveRowsMatchFullClosure checks the stronger invariant the
// restricted closure promises: at its fixpoint, EVERY active row equals the
// full closure's row — not just the source rows.
func TestRunFromActiveRowsMatchFullClosure(t *testing.T) {
	gram := sameGen(t)
	cnf := grammar.MustCNF(gram)
	rng := rand.New(rand.NewSource(11))
	e := NewEngine()
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(16)
		g := graph.Random(rng, n, 2*n, []string{"subClassOf", "subClassOf_r", "type", "type_r"})
		fullIx, _, _ := e.RunContext(context.Background(), g, cnf)
		src := []int{rng.Intn(n)}
		ix, fs, err := e.RunFromContext(context.Background(), g, cnf, src)
		if err != nil {
			t.Fatal(err)
		}
		if fs.Saturated {
			if !ix.Equal(fullIx) {
				t.Fatalf("saturated restricted closure differs from full closure")
			}
			continue
		}
		// Restricted bits must be a subset of the full closure; and every
		// full-closure bit in a restricted row that carries ANY bit of the
		// source's reachable fragment must be present. We verify subset +
		// exactness on the source row, which the API contract rests on.
		for _, nt := range cnf.Names {
			m, fm := ix.Matrix(nt), fullIx.Matrix(nt)
			m.Range(func(i, j int) bool {
				if !fm.Get(i, j) {
					t.Fatalf("restricted bit (%s,%d,%d) not in full closure", nt, i, j)
				}
				return true
			})
			fm.Range(func(i, j int) bool {
				if i == src[0] && !m.Get(i, j) {
					t.Fatalf("full-closure bit (%s,%d,%d) missing from restricted source row", nt, i, j)
				}
				return true
			})
		}
	}
}

// TestRunFromSaturationFallsBack forces saturation (query from every node
// of a strongly connected instance) and checks the result is the complete
// all-pairs closure.
func TestRunFromSaturationFallsBack(t *testing.T) {
	gram := grammar.MustParse("S -> a S b | a b")
	cnf := grammar.MustCNF(gram)
	g := graph.TwoCycles(5, 4, "a", "b")
	e := NewEngine()
	fullIx, _, _ := e.RunContext(context.Background(), g, cnf)
	sources := make([]int, g.Nodes())
	for i := range sources {
		sources[i] = i
	}
	ix, fs, err := e.RunFromContext(context.Background(), g, cnf, sources)
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Saturated {
		t.Fatalf("expected saturation with all nodes as sources, frontier=%d", fs.Frontier)
	}
	if !ix.Equal(fullIx) {
		t.Fatalf("saturated result differs from full closure")
	}
}

// TestQueryFromEdgeCases covers empty and out-of-range source sets. (An
// unknown non-terminal and empty-path inclusion are Engine.Do's: the root
// package's TestQueryErrors and TestQueryFromEqualsFilteredQueryProperty.)
func TestQueryFromEdgeCases(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	g := graph.Chain(4, "a")
	cnf := grammar.MustCNF(grammar.MustParse("S -> a S | a | eps"))

	ix, _, err := e.RunFromContext(ctx, g, cnf, nil)
	if err != nil {
		t.Fatalf("empty sources: %v", err)
	}
	if pairs := ix.Relation("S"); len(pairs) != 0 {
		t.Fatalf("empty sources: got %v", pairs)
	}
	if _, _, err := e.RunFromContext(ctx, g, cnf, []int{4}); err == nil {
		t.Fatal("out-of-range source: expected error")
	}
}

// TestRunFromSaturationThreshold pins that there is none: an a-chain of k
// edges from the single source reaches k+1 rows, and on a 10-node graph the
// restricted closure tracks exactly those rows whatever share of the graph
// they are — Saturated is set if and only if they are all of it, in which
// case the index is the full closure's — for every backend, with the source
// row agreeing with the full closure either way.
func TestRunFromSaturationThreshold(t *testing.T) {
	const n = 10
	gram := grammar.MustParse("S -> a S | a")
	cnf := grammar.MustCNF(gram)
	for _, be := range matrix.Backends() {
		e := NewEngine(WithBackend(be))
		for edges := 1; edges < n; edges++ {
			g := graph.New(n)
			for i := 0; i < edges; i++ {
				g.AddEdge(i, "a", i+1)
			}
			fullIx, _, _ := e.RunContext(context.Background(), g, cnf)
			ix, fs, err := e.RunFromContext(context.Background(), g, cnf, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			if reach := edges + 1; fs.Frontier != reach || fs.Saturated != (reach == n) {
				t.Fatalf("%s %d-edge chain: Frontier=%d Saturated=%v, want %d and %v",
					be.Name(), edges, fs.Frontier, fs.Saturated, reach, reach == n)
			}
			if fs.Saturated && !ix.Equal(fullIx) {
				t.Fatalf("%s %d-edge chain: every row active, yet the index differs from the full closure", be.Name(), edges)
			}
			m, fm := ix.Matrix("S"), fullIx.Matrix("S")
			for j := 0; j < n; j++ {
				if m.Get(0, j) != fm.Get(0, j) {
					t.Fatalf("%s %d-edge chain: source row disagrees at column %d", be.Name(), edges, j)
				}
			}
		}
	}
}

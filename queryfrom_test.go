package cfpq_test

// Property test for the source-restricted evaluation at the public API:
// on random grammars and random graphs, for every backend, a
// source-restricted Engine.Do must equal the unrestricted Engine.Do
// filtered to pairs leaving the sources — with and without empty-path
// inclusion.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"cfpq"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

func TestQueryFromEqualsFilteredQueryProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	cfg := grammar.DefaultRandomConfig()
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for _, be := range cfpq.Backends() {
		eng := cfpq.NewEngine(be)
		for trial := 0; trial < trials; trial++ {
			gram := grammar.RandomGrammar(rng, cfg)
			nts := gram.Nonterminals()
			start := nts[rng.Intn(len(nts))]
			labels := gram.Terminals()
			if len(labels) == 0 {
				continue // ε-only grammar: no edges to build
			}
			n := 4 + rng.Intn(16)
			g := graph.Random(rng, n, 2+rng.Intn(3*n), labels)

			k := 1 + rng.Intn(n)
			sources := rng.Perm(n)[:k]
			inSrc := make(map[int]bool, k)
			for _, s := range sources {
				inSrc[s] = true
			}

			for _, empty := range []bool{false, true} {
				req := cfpq.Request{Graph: g, Grammar: gram, Nonterminal: start, EmptyPaths: empty}
				full, errFull := eng.Do(ctx, req)
				req.Sources = sources
				from, errFrom := eng.Do(ctx, req)
				if (errFull == nil) != (errFrom == nil) {
					t.Fatalf("%s trial %d empty=%v: error mismatch: unrestricted=%v sources=%v",
						be, trial, empty, errFull, errFrom)
				}
				if errFull != nil {
					continue // e.g. a grammar the CNF conversion rejects
				}
				got := from.AllPairs()
				var want []cfpq.Pair
				for _, p := range full.AllPairs() {
					if inSrc[p.I] {
						want = append(want, p)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d empty=%v start=%s sources=%v:\n got %v\nwant %v\ngrammar:\n%s",
						be, trial, empty, start, sources, got, want, gram)
				}
			}
		}
	}
}

package cfpq_test

// Tests of the declarative Request → planner → Result surface: the
// target-restricted property (Do with Targets equals the target-filtered
// unrestricted Do — the mirror of queryfrom_test.go), the pair-restriction
// property, Explain strategy pins for every plan, output shaping, and
// request validation.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"cfpq"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

// TestQueryToEqualsFilteredQueryProperty is the target-side mirror of
// TestQueryFromEqualsFilteredQueryProperty: on random grammars and random
// graphs, for every backend, a target-restricted Do must equal the
// unrestricted Do filtered to pairs entering the targets — with and
// without empty-path inclusion.
func TestQueryToEqualsFilteredQueryProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
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
			targets := rng.Perm(n)[:k]
			inTgt := make(map[int]bool, k)
			for _, v := range targets {
				inTgt[v] = true
			}

			for _, empty := range []bool{false, true} {
				req := cfpq.Request{Graph: g, Grammar: gram, Nonterminal: start, EmptyPaths: empty}
				full, errFull := eng.Do(ctx, req)
				req.Targets = targets
				to, errTo := eng.Do(ctx, req)
				if (errFull == nil) != (errTo == nil) {
					t.Fatalf("%s trial %d empty=%v: error mismatch: unrestricted=%v targets=%v",
						be, trial, empty, errFull, errTo)
				}
				if errFull != nil {
					continue // e.g. a grammar the CNF conversion rejects
				}
				got := to.AllPairs()
				var want []cfpq.Pair
				for _, p := range full.AllPairs() {
					if inTgt[p.J] {
						want = append(want, p)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d empty=%v start=%s targets=%v:\n got %v\nwant %v\ngrammar:\n%s",
						be, trial, empty, start, targets, got, want, gram)
				}
			}
		}
	}
}

// TestPairRestrictedDoEqualsFilteredQueryProperty checks the both-sides
// restriction (the planner picks the smaller frontier seed and filters the
// other side) against the doubly filtered closure, with and without
// empty paths — plus (v, v) for every v on both sides when the start
// derives ε — for pairs, count and exists, and under a Limit that clips.
// Each trial asks with its random restriction and again with one side
// repeated past the other's length, so both frontier strategies answer the
// same question.
func TestPairRestrictedDoEqualsFilteredQueryProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(44))
	cfg := grammar.DefaultRandomConfig()
	trials := 10
	if testing.Short() {
		trials = 3
	}
	eng := cfpq.NewEngine(cfpq.Sparse)
	for trial := 0; trial < trials; trial++ {
		gram := grammar.RandomGrammar(rng, cfg)
		nts := gram.Nonterminals()
		start := nts[rng.Intn(len(nts))]
		labels := gram.Terminals()
		if len(labels) == 0 {
			continue
		}
		n := 4 + rng.Intn(16)
		g := graph.Random(rng, n, 2+rng.Intn(3*n), labels)
		sources := rng.Perm(n)[:1+rng.Intn(n)]
		targets := rng.Perm(n)[:1+rng.Intn(n)]
		inSrc, inTgt := map[int]bool{}, map[int]bool{}
		for _, v := range sources {
			inSrc[v] = true
		}
		for _, v := range targets {
			inTgt[v] = true
		}

		full, errFull := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: start})
		res, errDo := eng.Do(ctx, cfpq.Request{
			Graph: g, Grammar: gram, Nonterminal: start,
			Sources: sources, Targets: targets,
		})
		if (errFull == nil) != (errDo == nil) {
			t.Fatalf("trial %d: error mismatch: unrestricted=%v restricted=%v", trial, errFull, errDo)
		}
		if errFull != nil {
			continue
		}
		var want []cfpq.Pair
		for _, p := range full.AllPairs() {
			if inSrc[p.I] && inTgt[p.J] {
				want = append(want, p)
			}
		}
		if got := res.AllPairs(); !slices.Equal(got, want) {
			t.Fatalf("trial %d start=%s sources=%v targets=%v:\n got %v\nwant %v\ngrammar:\n%s",
				trial, start, sources, targets, got, want, gram)
		}
		wantStrategy := cfpq.StrategySourceFrontier
		if len(targets) < len(sources) {
			wantStrategy = cfpq.StrategyTargetFrontier
		}
		if res.Explain.Strategy != wantStrategy {
			t.Fatalf("trial %d: planned %q for %d sources / %d targets, want %q",
				trial, res.Explain.Strategy, len(sources), len(targets), wantStrategy)
		}

		cnf, err := cfpq.ToCNF(gram)
		if err != nil {
			t.Fatal(err)
		}
		// Ask for a nullable start too, when the grammar has one: empty
		// paths change only its answers. And widen the targets by the
		// sources, so that they have nodes on both sides to add.
		starts := []string{start}
		targets = append(slices.Clone(targets), sources...)
		for _, v := range sources {
			inTgt[v] = true
		}
		for _, nt := range nts {
			if cnf.Nullable[nt] && !cnf.Nullable[start] {
				starts = append(starts, nt)
				break
			}
		}
		for _, start := range starts {
			full, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: start})
			if err != nil {
				t.Fatal(err)
			}
			var want []cfpq.Pair
			for _, p := range full.AllPairs() {
				if inSrc[p.I] && inTgt[p.J] {
					want = append(want, p)
				}
			}
			// The empty-path answer: the filtered closure plus (v, v) for v
			// on both sides, in row-major order.
			withEmpty := slices.Clone(want)
			if cnf.Nullable[start] {
				for v := range n {
					if p := (cfpq.Pair{I: v, J: v}); inSrc[v] && inTgt[v] && !slices.Contains(want, p) {
						withEmpty = append(withEmpty, p)
					}
				}
				slices.SortFunc(withEmpty, func(a, b cfpq.Pair) int {
					if a.I != b.I {
						return a.I - b.I
					}
					return a.J - b.J
				})
			}
			for _, c := range []struct {
				sources, targets []int
				strategy         cfpq.Strategy
			}{
				{sources, repeatPast(targets, len(sources)), cfpq.StrategySourceFrontier},
				{repeatPast(sources, len(targets)+1), targets, cfpq.StrategyTargetFrontier},
			} {
				for _, empty := range []bool{false, true} {
					want := want
					if empty {
						want = withEmpty
					}
					limit := 0
					if len(want) > 1 {
						limit = 1 + rng.Intn(len(want)-1) // clips: 1 ≤ limit < len(want)
					}
					for _, shape := range []struct {
						out   cfpq.Output
						limit int
					}{{cfpq.OutputPairs, 0}, {cfpq.OutputPairs, limit}, {cfpq.OutputCount, 0}, {cfpq.OutputExists, 0}} {
						out := shape.out
						req := cfpq.Request{
							Graph: g, Grammar: gram, Nonterminal: start,
							Sources: c.sources, Targets: c.targets, EmptyPaths: empty, Output: out, Limit: shape.limit,
						}
						res, err := eng.Do(ctx, req)
						if err != nil {
							t.Fatalf("trial %d %s empty=%v %s: %v", trial, c.strategy, empty, out, err)
						}
						if res.Explain.Strategy != c.strategy {
							t.Fatalf("trial %d: planned %q for %d sources / %d targets, want %q",
								trial, res.Explain.Strategy, len(c.sources), len(c.targets), c.strategy)
						}
						page, truncated := want, false
						if req.Limit > 0 && len(want) > req.Limit {
							page, truncated = want[:req.Limit], true
						}
						var ok bool
						switch out {
						case cfpq.OutputCount:
							ok = res.Count == len(want)
						case cfpq.OutputExists:
							ok = res.Exists == (len(want) > 0)
						default:
							ok = slices.Equal(res.AllPairs(), page) && res.Count == len(page) && res.Truncated == truncated
						}
						if !ok {
							t.Fatalf("trial %d %s empty=%v %s limit=%d start=%s sources=%v targets=%v:\n got count %d exists %v truncated %v pairs %v\nwant %v\ngrammar:\n%s",
								trial, c.strategy, empty, out, req.Limit, start, c.sources, c.targets,
								res.Count, res.Exists, res.Truncated, res.AllPairs(), want, gram)
						}
					}
				}
			}
		}
	}
}

// repeatPast repeats nodes until the list is at least k long: the same
// restriction, longer.
func repeatPast(nodes []int, k int) []int {
	out := slices.Clone(nodes)
	for len(out) < k {
		out = append(out, nodes...)
	}
	return out
}

// TestDoExplainStrategies pins the strategy Explain names for every plan
// on the paper's worked example, across backends.
func TestDoExplainStrategies(t *testing.T) {
	ctx := context.Background()
	wantS := []cfpq.Pair{{I: 0, J: 0}, {I: 0, J: 2}, {I: 1, J: 2}}
	forEachBackend(t, func(t *testing.T, eng *cfpq.Engine) {
		g, gram := figure5()

		// Unrestricted: full closure.
		res, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Explain.Strategy != cfpq.StrategyFull {
			t.Errorf("unrestricted: strategy %q, want full", res.Explain.Strategy)
		}
		if got := res.AllPairs(); !slices.Equal(got, wantS) {
			t.Errorf("unrestricted pairs = %v, want %v", got, wantS)
		}

		// Source restriction: source frontier.
		res, err = eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Sources: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Explain.Strategy != cfpq.StrategySourceFrontier {
			t.Errorf("sources: strategy %q, want source-frontier", res.Explain.Strategy)
		}
		if want := []cfpq.Pair{{I: 1, J: 2}}; !slices.Equal(res.AllPairs(), want) {
			t.Errorf("sources pairs = %v, want %v", res.AllPairs(), want)
		}

		// Target restriction: target frontier over the reversed instance.
		res, err = eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Targets: []int{2}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Explain.Strategy != cfpq.StrategyTargetFrontier {
			t.Errorf("targets: strategy %q, want target-frontier", res.Explain.Strategy)
		}
		if want := []cfpq.Pair{{I: 0, J: 2}, {I: 1, J: 2}}; !slices.Equal(res.AllPairs(), want) {
			t.Errorf("targets pairs = %v, want %v", res.AllPairs(), want)
		}

		// Pair restriction with exists output.
		res, err = eng.Do(ctx, cfpq.Request{
			Graph: g, Grammar: gram, Nonterminal: "S",
			Sources: []int{0}, Targets: []int{2}, Output: cfpq.OutputExists,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exists {
			t.Error("exists(0,2) = false, want true")
		}

		// Cached read from a Prepared handle.
		prep, err := eng.Prepare(ctx, g.Clone(), gram)
		if err != nil {
			t.Fatal(err)
		}
		res, err = prep.Do(ctx, cfpq.Request{Nonterminal: "S", Targets: []int{2}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Explain.Strategy != cfpq.StrategyCachedRead {
			t.Errorf("prepared: strategy %q, want cached-read", res.Explain.Strategy)
		}
		if want := []cfpq.Pair{{I: 0, J: 2}, {I: 1, J: 2}}; !slices.Equal(res.AllPairs(), want) {
			t.Errorf("prepared target-restricted pairs = %v, want %v", res.AllPairs(), want)
		}
	})
}

// TestDoOutputShapes covers the non-pairs outputs end to end: count,
// exists, paths (with limits), and the pair limit.
func TestDoOutputShapes(t *testing.T) {
	ctx := context.Background()
	eng := cfpq.NewEngine(cfpq.Sparse)
	g, gram := figure5()

	count, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Output: cfpq.OutputCount})
	if err != nil {
		t.Fatal(err)
	}
	if count.Count != 3 {
		t.Errorf("count = %d, want 3", count.Count)
	}

	limited, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if limited.Count != 2 || len(limited.AllPairs()) != 2 {
		t.Errorf("limit 2: count %d, %d pairs", limited.Count, len(limited.AllPairs()))
	}

	absent, err := eng.Do(ctx, cfpq.Request{
		Graph: g, Grammar: gram, Nonterminal: "S",
		Sources: []int{2}, Targets: []int{1}, Output: cfpq.OutputExists,
	})
	if err != nil {
		t.Fatal(err)
	}
	if absent.Exists {
		t.Error("exists(2,1) = true, want false")
	}

	paths, err := eng.Do(ctx, cfpq.Request{
		Graph: g, Grammar: gram, Nonterminal: "S",
		Sources: []int{0}, Targets: []int{2}, Output: cfpq.OutputPaths, Limit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if paths.Explain.Strategy != cfpq.StrategyFull {
		t.Errorf("paths: strategy %q, want full", paths.Explain.Strategy)
	}
	got := paths.AllPaths()
	if len(got) != 1 {
		t.Fatalf("paths limit 1: got %d paths", len(got))
	}
	if p := got[0]; len(p) == 0 || p[0].From != 0 || p[len(p)-1].To != 2 {
		t.Errorf("returned path %v does not join 0 and 2", p)
	}

	// The same outputs from the prepared (cached-read) side.
	prep, err := eng.Prepare(ctx, g.Clone(), gram)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := prep.Do(ctx, cfpq.Request{
		Nonterminal: "S", Sources: []int{0}, Targets: []int{2}, Output: cfpq.OutputPaths, Limit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.AllPaths()) != 1 {
		t.Fatalf("prepared paths limit 1: got %d paths", len(pp.AllPaths()))
	}
	pl, err := prep.Do(ctx, cfpq.Request{Nonterminal: "S", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Count != 2 || len(pl.AllPairs()) != 2 {
		t.Errorf("prepared limit 2: count %d, %d pairs", pl.Count, len(pl.AllPairs()))
	}
}

// TestDoRPQAndConjunctive checks the other two languages flow through the
// planner with restrictions applied.
func TestDoRPQAndConjunctive(t *testing.T) {
	ctx := context.Background()
	eng := cfpq.NewEngine(cfpq.Sparse)
	g := cfpq.NewGraph(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "a", 3)

	full, err := eng.Do(ctx, cfpq.Request{Graph: g, Expr: "a+"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Do(ctx, cfpq.Request{Graph: g, Expr: "a+", Targets: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Strategy != cfpq.StrategyTargetFrontier {
		t.Errorf("restricted RPQ: strategy %q, want target-frontier", res.Explain.Strategy)
	}
	var want []cfpq.Pair
	for _, p := range full.AllPairs() {
		if p.J == 3 {
			want = append(want, p)
		}
	}
	if got := res.AllPairs(); !slices.Equal(got, want) {
		t.Errorf("restricted RPQ = %v, want %v", got, want)
	}

	cg, err := cfpq.ParseConjunctive("S -> a S | a")
	if err != nil {
		t.Fatal(err)
	}
	cres, err := eng.Do(ctx, cfpq.Request{Graph: g, Conjunctive: cg, Nonterminal: "S", Sources: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Explain.Strategy != cfpq.StrategyFull {
		t.Errorf("conjunctive: strategy %q, want full", cres.Explain.Strategy)
	}
	cwant := []cfpq.Pair{{I: 0, J: 1}, {I: 0, J: 2}, {I: 0, J: 3}}
	if got := cres.AllPairs(); !slices.Equal(got, cwant) {
		t.Errorf("restricted conjunctive = %v, want %v", got, cwant)
	}
}

// TestRequestValidation pins the structured errors of malformed requests
// on both surfaces.
func TestRequestValidation(t *testing.T) {
	ctx := context.Background()
	eng := cfpq.NewEngine(cfpq.Sparse)
	g, gram := figure5()

	bad := []cfpq.Request{
		{Graph: g, Grammar: gram},                                             // no language
		{Graph: g, Grammar: gram, Nonterminal: "S", Expr: "a"},                // two languages
		{Graph: g, Grammar: gram, Nonterminal: "S", Output: "nope"},           // unknown output
		{Graph: g, Grammar: gram, Nonterminal: "S", Limit: -1},                // negative limit
		{Graph: g, Grammar: gram, Nonterminal: "S", Sources: []int{-2}},       // negative node
		{Graph: g, Grammar: gram, Nonterminal: "S", Output: cfpq.OutputPaths}, // paths without pair
		{Graph: g, Grammar: gram, Nonterminal: "S", Sources: []int{99}},       // out of range (Engine)
		{Grammar: gram, Nonterminal: "S"},                                     // no graph
		{Graph: g, Nonterminal: "S"},                                          // no grammar
	}
	for i, req := range bad {
		res, err := eng.Do(ctx, req)
		if err == nil {
			t.Errorf("bad request %d: no error (result %+v)", i, res)
			continue
		}
		var reqErr *cfpq.RequestError
		if !errors.As(err, &reqErr) {
			t.Errorf("bad request %d: unstructured error %v", i, err)
		}
	}

	prep, err := eng.Prepare(ctx, g.Clone(), gram)
	if err != nil {
		t.Fatal(err)
	}
	badPrepared := []cfpq.Request{
		{Graph: cfpq.NewGraph(1), Nonterminal: "S"}, // own graph
		{Grammar: gram, Nonterminal: "S"},           // own grammar
		{Expr: "a"},                                 // RPQ on a handle
		{Nonterminal: "S", EmptyPaths: true},        // ε-decoration on a cached index
	}
	for i, req := range badPrepared {
		if _, err := prep.Do(ctx, req); err == nil {
			t.Errorf("bad prepared request %d: no error", i)
		} else {
			var reqErr *cfpq.RequestError
			if !errors.As(err, &reqErr) {
				t.Errorf("bad prepared request %d: unstructured error %v", i, err)
			}
		}
	}

	// An empty (non-nil) restriction is a real restriction: nothing.
	res, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Sources: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || len(res.AllPairs()) != 0 {
		t.Errorf("empty restriction: %d pairs, want 0", res.Count)
	}
}

// TestRequestConflictingBindings pins that a stray Grammar binding
// alongside another language is rejected rather than silently ignored.
func TestRequestConflictingBindings(t *testing.T) {
	g, gram := figure5()
	cg, err := cfpq.ParseConjunctive("S -> a S | a")
	if err != nil {
		t.Fatal(err)
	}
	eng := cfpq.NewEngine(cfpq.Sparse)
	for i, req := range []cfpq.Request{
		{Graph: g, Grammar: gram, Expr: "a+"},
		{Graph: g, Grammar: gram, Conjunctive: cg, Nonterminal: "S"},
	} {
		var reqErr *cfpq.RequestError
		if _, err := eng.Do(context.Background(), req); err == nil || !errors.As(err, &reqErr) {
			t.Errorf("conflicting bindings %d: got %v, want a *RequestError", i, err)
		}
	}
}

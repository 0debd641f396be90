package cfpq_test

// The golden cross-backend conformance suite: fixed graphs and grammars
// with committed expected results for every query shape — Requests to
// Engine.Do (a Grammar non-terminal, unrestricted or source-restricted, an
// Expr, a Conjunctive grammar), SinglePath, ShortestPath and AllPaths —
// run under every backend name BackendByName accepts. These goldens pin the observable
// semantics of the library so the evaluation internals (in particular the
// source-restricted closure and any future kernel work) can be refactored
// aggressively: any behavioural drift fails here first, with the exact
// pair that moved.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"cfpq"
	"cfpq/internal/dataset"
)

// figure5 returns the paper's worked-example graph (Figure 5) and the
// same-generation grammar of Figure 3.
func figure5() (*cfpq.Graph, *cfpq.Grammar) {
	g := cfpq.NewGraph(3)
	g.AddEdge(0, "subClassOf_r", 0)
	g.AddEdge(0, "type_r", 1)
	g.AddEdge(1, "type_r", 2)
	g.AddEdge(2, "subClassOf", 0)
	g.AddEdge(2, "type", 2)
	gram := cfpq.MustParseGrammar(`
		S -> subClassOf_r S subClassOf | subClassOf_r subClassOf
		S -> type_r S type | type_r type
	`)
	return g, gram
}

// backendNames is every name BackendByName accepts: "dense" and "sparse",
// and the names of the retired row-parallel kernels, which decode to them.
// A flag, a request or a stored index may still carry a legacy name, so the
// suites that pin behaviour per backend run under each name.
var backendNames = []string{"dense", "dense-parallel", "sparse", "sparse-parallel"}

// mustBackend resolves one of backendNames.
func mustBackend(t *testing.T, name string) cfpq.Backend {
	t.Helper()
	be, err := cfpq.BackendByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// forEachBackend runs the check once per backend name, as a subtest.
func forEachBackend(t *testing.T, fn func(t *testing.T, eng *cfpq.Engine)) {
	t.Helper()
	for _, name := range backendNames {
		eng := cfpq.NewEngine(mustBackend(t, name))
		t.Run(name, func(t *testing.T) { fn(t, eng) })
	}
}

// TestConformanceDatasetCounts pins |R_S| of the paper's two queries on
// the six smallest dataset ontologies (deterministically generated, so
// the counts are stable), for every backend.
func TestConformanceDatasetCounts(t *testing.T) {
	golden := []struct {
		dataset string
		nodes   int
		q1Count int
		q2Count int
	}{
		{"skos", 161, 857, 85},
		{"generations", 173, 771, 92},
		{"travel", 175, 837, 93},
		{"univ-bench", 186, 871, 98},
		{"atom-primitive", 269, 1389, 142},
		{"foaf", 404, 2096, 211},
	}
	ctx := context.Background()
	forEachBackend(t, func(t *testing.T, eng *cfpq.Engine) {
		for _, row := range golden {
			d, ok := dataset.ByName(row.dataset)
			if !ok {
				t.Fatalf("unknown dataset %q", row.dataset)
			}
			g := d.Build()
			if g.Nodes() != row.nodes {
				t.Fatalf("%s: %d nodes, want %d (generator drifted — goldens need review)",
					row.dataset, g.Nodes(), row.nodes)
			}
			for q, want := range map[int]int{1: row.q1Count, 2: row.q2Count} {
				res, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: dataset.Query(q), Nonterminal: "S"})
				if err != nil {
					t.Fatal(err)
				}
				if pairs := res.AllPairs(); len(pairs) != want {
					t.Errorf("%s query %d: %d pairs, want %d", row.dataset, q, len(pairs), want)
				}
			}
		}
	})
}

// TestConformanceFigure5 pins every query shape's exact answer on the
// paper's worked example.
func TestConformanceFigure5(t *testing.T) {
	ctx := context.Background()
	wantS := []cfpq.Pair{{I: 0, J: 0}, {I: 0, J: 2}, {I: 1, J: 2}}
	wantLengths := map[cfpq.Pair]int{{I: 0, J: 0}: 6, {I: 0, J: 2}: 4, {I: 1, J: 2}: 2}
	forEachBackend(t, func(t *testing.T, eng *cfpq.Engine) {
		g, gram := figure5()
		cnf, err := cfpq.ToCNF(gram)
		if err != nil {
			t.Fatal(err)
		}

		// Unrestricted pairs (relational semantics).
		res, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S"})
		if err != nil {
			t.Fatal(err)
		}
		if pairs := res.AllPairs(); !slices.Equal(pairs, wantS) {
			t.Errorf("Do = %v, want %v", pairs, wantS)
		}

		// Source-restricted pairs: filtered to source node 1.
		res, err = eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Sources: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		if from, want := res.AllPairs(), []cfpq.Pair{{I: 1, J: 2}}; !slices.Equal(from, want) {
			t.Errorf("Do(Sources: [1]) = %v, want %v", from, want)
		}

		// SinglePath and ShortestPath: same relation, pinned witness
		// lengths (on this instance the single-path witnesses are already
		// minimal).
		for name, run := range map[string]func(context.Context, *cfpq.Graph, *cfpq.CNF) (*cfpq.PathIndex, error){
			"SinglePath":   eng.SinglePath,
			"ShortestPath": eng.ShortestPath,
		} {
			px, err := run(ctx, g, cnf)
			if err != nil {
				t.Fatal(err)
			}
			rel := px.Relation("S")
			if len(rel) != len(wantS) {
				t.Fatalf("%s relation = %v, want pairs %v", name, rel, wantS)
			}
			for _, lp := range rel {
				if want := wantLengths[cfpq.Pair{I: lp.I, J: lp.J}]; lp.Length != want {
					t.Errorf("%s length(%d,%d) = %d, want %d", name, lp.I, lp.J, lp.Length, want)
				}
				path, ok := px.Path("S", lp.I, lp.J)
				if !ok || len(path) != lp.Length {
					t.Errorf("%s path(%d,%d): ok=%v len=%d, want length %d", name, lp.I, lp.J, ok, len(path), lp.Length)
				}
			}
		}

		// AllPaths: the exact witness enumeration, one path per pair on
		// this instance (bounded by length 6).
		ix, _, err := eng.Evaluate(ctx, g, cnf)
		if err != nil {
			t.Fatal(err)
		}
		wantPaths := map[cfpq.Pair][]string{
			{I: 0, J: 0}: {"0-subClassOf_r->0", "0-type_r->1", "1-type_r->2", "2-type->2", "2-type->2", "2-subClassOf->0"},
			{I: 0, J: 2}: {"0-type_r->1", "1-type_r->2", "2-type->2", "2-type->2"},
			{I: 1, J: 2}: {"1-type_r->2", "2-type->2"},
		}
		for pr, want := range wantPaths {
			paths, err := eng.AllPaths(ctx, g, ix, "S", pr.I, pr.J, cfpq.AllPathsOptions{MaxLength: 6, MaxPaths: 8})
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != 1 {
				t.Fatalf("AllPaths(%d,%d): %d paths, want 1", pr.I, pr.J, len(paths))
			}
			got := make([]string, len(paths[0]))
			for i, e := range paths[0] {
				got[i] = fmt.Sprintf("%d-%s->%d", e.From, e.Label, e.To)
			}
			if !slices.Equal(got, want) {
				t.Errorf("AllPaths(%d,%d) = %v, want %v", pr.I, pr.J, got, want)
			}
		}
	})
}

// TestConformanceRPQ pins a regular path query on a fixed class
// hierarchy: instances 4 and 5 reach their classes' ancestors via
// `type subClassOf*`.
func TestConformanceRPQ(t *testing.T) {
	ctx := context.Background()
	want := []cfpq.Pair{{I: 4, J: 0}, {I: 4, J: 1}, {I: 4, J: 3}, {I: 5, J: 0}, {I: 5, J: 2}}
	forEachBackend(t, func(t *testing.T, eng *cfpq.Engine) {
		h := cfpq.NewGraph(6)
		h.AddEdge(1, "subClassOf", 0)
		h.AddEdge(2, "subClassOf", 0)
		h.AddEdge(3, "subClassOf", 1)
		h.AddEdge(4, "type", 3)
		h.AddEdge(5, "type", 2)
		res, err := eng.Do(ctx, cfpq.Request{Graph: h, Expr: "type subClassOf*"})
		if err != nil {
			t.Fatal(err)
		}
		if pairs := res.AllPairs(); !slices.Equal(pairs, want) {
			t.Errorf("Do(Expr) = %v, want %v", pairs, want)
		}
	})
}

// TestConformanceConjunctive pins the canonical conjunctive query
// {aⁿbⁿcⁿ} on the linear word a²b²c²: exactly the full-word pair.
func TestConformanceConjunctive(t *testing.T) {
	ctx := context.Background()
	cg, err := cfpq.ParseConjunctive(`
		S -> A B & D C
		A -> a A | a
		B -> b B c | b c
		C -> c C | c
		D -> a D b | a b
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []cfpq.Pair{{I: 0, J: 6}}
	forEachBackend(t, func(t *testing.T, eng *cfpq.Engine) {
		w := cfpq.NewGraph(0)
		for i, l := range []string{"a", "a", "b", "b", "c", "c"} {
			w.AddEdge(i, l, i+1)
		}
		res, err := eng.Do(ctx, cfpq.Request{Graph: w, Conjunctive: cg, Nonterminal: "S"})
		if err != nil {
			t.Fatal(err)
		}
		if pairs := res.AllPairs(); !slices.Equal(pairs, want) {
			t.Errorf("Do(Conjunctive) = %v, want %v", pairs, want)
		}
	})
}

// TestConformanceRequestDatasets pins Request-path answers on the six
// smallest dataset ontologies: the target- and source-restricted counts
// of the paper's Query 1 for the restriction {0,1,2,3}, and the
// target-restricted ancestors relation (whose reverse frontier saturates
// on these root-heavy nodes, pinning the fallback path too), for every
// backend. These goldens hold the planner to the answers the full
// closure gives; any strategy drift fails here with the exact count that
// moved.
func TestConformanceRequestDatasets(t *testing.T) {
	golden := []struct {
		dataset        string
		nodes          int
		q1TargetCount  int
		q1SourceCount  int
		ancestorsCount int
	}{
		{"skos", 161, 100, 100, 204},
		{"generations", 173, 87, 87, 145},
		{"travel", 175, 113, 113, 188},
		{"univ-bench", 186, 94, 94, 188},
		{"atom-primitive", 269, 122, 122, 212},
		{"foaf", 404, 158, 158, 398},
	}
	ctx := context.Background()
	restriction := []int{0, 1, 2, 3}
	ancestors := cfpq.MustParseGrammar("S -> subClassOf S | subClassOf")
	forEachBackend(t, func(t *testing.T, eng *cfpq.Engine) {
		for _, row := range golden {
			d, ok := dataset.ByName(row.dataset)
			if !ok {
				t.Fatalf("unknown dataset %q", row.dataset)
			}
			g := d.Build()
			if g.Nodes() != row.nodes {
				t.Fatalf("%s: %d nodes, want %d (generator drifted — goldens need review)",
					row.dataset, g.Nodes(), row.nodes)
			}
			rt, err := eng.Do(ctx, cfpq.Request{
				Graph: g, Grammar: dataset.Query(1), Nonterminal: "S",
				Targets: restriction, Output: cfpq.OutputCount,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rt.Explain.Strategy != cfpq.StrategyTargetFrontier {
				t.Errorf("%s: q1 target strategy %q", row.dataset, rt.Explain.Strategy)
			}
			if rt.Count != row.q1TargetCount {
				t.Errorf("%s: q1 target count %d, want %d", row.dataset, rt.Count, row.q1TargetCount)
			}
			rs, err := eng.Do(ctx, cfpq.Request{
				Graph: g, Grammar: dataset.Query(1), Nonterminal: "S",
				Sources: restriction, Output: cfpq.OutputCount,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rs.Explain.Strategy != cfpq.StrategySourceFrontier {
				t.Errorf("%s: q1 source strategy %q", row.dataset, rs.Explain.Strategy)
			}
			if rs.Count != row.q1SourceCount {
				t.Errorf("%s: q1 source count %d, want %d", row.dataset, rs.Count, row.q1SourceCount)
			}
			ra, err := eng.Do(ctx, cfpq.Request{
				Graph: g, Grammar: ancestors, Nonterminal: "S", Targets: restriction,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ra.Count != row.ancestorsCount {
				t.Errorf("%s: ancestors target count %d, want %d", row.dataset, ra.Count, row.ancestorsCount)
			}
			for p := range ra.Pairs() {
				if p.J > 3 {
					t.Errorf("%s: pair %v escaped the target restriction", row.dataset, p)
					break
				}
			}
		}
	})
}

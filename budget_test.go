package cfpq_test

// Tests of the per-closure memory budget (WithMemoryBudget → typed
// *MemoryBudgetError on every context-taking evaluation path) and the
// query-surface edge cases pinned alongside it: structured bounds errors,
// empty-restriction semantics, and honest limit truncation.

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cfpq"
)

// TestMemoryBudgetRejects asserts a budget far below the index footprint
// fails fast with the typed error on each evaluation path of an engine
// built with it, and that a generous budget changes nothing.
func TestMemoryBudgetRejects(t *testing.T) {
	ctx := context.Background()
	g, gram := figure5()
	const tiny = 16 // bytes: below even one empty 3-node matrix

	for _, name := range backendNames {
		be := mustBackend(t, name)
		t.Run(name, func(t *testing.T) {
			tight := cfpq.NewEngine(be, cfpq.WithMemoryBudget(tiny))

			// The eager evaluation path.
			cnf, err := cfpq.ToCNF(gram)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = tight.Evaluate(ctx, g, cnf)
			var mbe *cfpq.MemoryBudgetError
			if !errors.As(err, &mbe) {
				t.Fatalf("Evaluate under %d bytes: %v, want *MemoryBudgetError", tiny, err)
			}
			if mbe.BudgetBytes != tiny || mbe.EstimatedBytes <= tiny {
				t.Fatalf("error payload %+v, want budget %d and a larger estimate", mbe, tiny)
			}

			// The declarative path, for both the full-closure and
			// source-frontier strategies.
			for _, req := range []cfpq.Request{
				{Graph: g, Grammar: gram, Nonterminal: "S"},
				{Graph: g, Grammar: gram, Nonterminal: "S", Sources: []int{0}},
			} {
				if _, err := tight.Do(ctx, req); !errors.As(err, &mbe) {
					t.Fatalf("Do (sources %v) under budget: %v, want *MemoryBudgetError", req.Sources, err)
				}
			}

			// The budget governs Prepare too (and would govern every later
			// patch through the same engine).
			if _, err := tight.Prepare(ctx, g.Clone(), gram); !errors.As(err, &mbe) {
				t.Fatalf("Prepare under engine budget: %v, want *MemoryBudgetError", err)
			}

			// A budget the closure fits under is invisible.
			roomy := cfpq.NewEngine(be, cfpq.WithMemoryBudget(64<<20))
			p, err := roomy.Prepare(ctx, g.Clone(), gram)
			if err != nil {
				t.Fatalf("Prepare under 64MiB budget: %v", err)
			}
			if n := countOf(t, p, "S"); n != 3 {
				t.Fatalf("budgeted Prepare count = %d, want 3", n)
			}
		})
	}
}

// TestAddEdgesHonoursMemoryBudget: the engine-wide budget governs
// incremental patches too. Under a budget the finished closure of the
// patched graph just fits, the patch's semi-naive pass (index plus two sets
// of frontier matrices, beside the version readers still hold) does not:
// AddEdges fails with *MemoryBudgetError under the cancellation contract —
// the update is abandoned, nothing is published or pushed, every answer
// stays as it was. A handle's budget is its engine's, so the retry is
// abandoned the same way: the handle serves its last version until it is
// re-prepared under a larger budget.
func TestAddEdgesHonoursMemoryBudget(t *testing.T) {
	ctx := context.Background()
	patched := cfpq.NewGraph(0)
	for i := 0; i < 6; i++ {
		patched.AddEdge(i, "a", i+1)
	}
	for i := 6; i < 12; i++ {
		patched.AddEdge(i, "b", i+1)
	}
	cnf, err := cfpq.ToCNF(cfpq.MustParseGrammar("S -> a S b | a b"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range backendNames {
		be := mustBackend(t, name)
		t.Run(name, func(t *testing.T) {
			_, cold, err := cfpq.NewEngine(be).Evaluate(ctx, patched, cnf)
			if err != nil {
				t.Fatal(err)
			}
			eng := cfpq.NewEngine(be, cfpq.WithMemoryBudget(cold.PeakBytes))
			interruptedPatchExactlyOnce(t, eng, ctx, func(err error) bool {
				var mbe *cfpq.MemoryBudgetError
				return errors.As(err, &mbe) && mbe.BudgetBytes == cold.PeakBytes
			}, false)
		})
	}
}

// TestGrowingUpdateRejectedBeforeItAllocates: the budget is checked against
// the grown working set before the index is grown. A 64-node chain's handle
// under a 1 MiB budget is handed an edge to node 20000 — 20001² bits per
// dense matrix, 480 KB of row headers per sparse one; the update is rejected
// with *MemoryBudgetError having allocated less than the budget it enforces
// (the check used to follow Index.Grow: 95 MiB on the dense backend), and
// the handle answers exactly as before.
func TestGrowingUpdateRejectedBeforeItAllocates(t *testing.T) {
	ctx := context.Background()
	const n, budget = 64, 1 << 20
	g := cfpq.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, "a", i+1)
	}
	gram := cfpq.MustParseGrammar("S -> a S | a")
	for _, name := range []string{"dense", "sparse"} {
		t.Run(name, func(t *testing.T) {
			be, err := cfpq.BackendByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := cfpq.NewEngine(be, cfpq.WithMemoryBudget(budget)).Prepare(ctx, g, gram)
			if err != nil {
				t.Fatal(err)
			}
			want := relationOf(t, p, "S")
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			info, err := p.AddEdges(ctx, cfpq.Edge{From: n - 1, Label: "a", To: 20000})
			runtime.ReadMemStats(&after)
			var mbe *cfpq.MemoryBudgetError
			if !errors.As(err, &mbe) || mbe.EstimatedBytes <= budget {
				t.Fatalf("AddEdges to node 20000 under %d bytes: %v, want *MemoryBudgetError", budget, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
				t.Errorf("the rejected update allocated %d bytes, its budget is %d", got, budget)
			}
			if info.Grown || !info.Delta.Empty() {
				t.Errorf("rejected update reports grown=%v, delta %v", info.Grown, info.Delta.Nonterminals())
			}
			if got := relationOf(t, p, "S"); !slices.Equal(got, want) {
				t.Errorf("answers changed under a rejected update: %d pairs, had %d", len(got), len(want))
			}
			if st := p.Stats(); st.Nodes != n || st.Version != 0 {
				t.Errorf("index after the rejected update: %d nodes, version %d; want it untouched", st.Nodes, st.Version)
			}
		})
	}
}

// TestDoBoundsErrorsStructured pins satellite 3: out-of-range restriction
// nodes on Engine.Do come back as *RequestError naming the field and the
// valid range — the same shape Validate produces — on both Do surfaces.
func TestDoBoundsErrorsStructured(t *testing.T) {
	ctx := context.Background()
	g, gram := figure5()
	eng := cfpq.NewEngine(cfpq.Sparse)
	p, err := eng.Prepare(ctx, g.Clone(), gram)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		req      cfpq.Request
		field    string
		reason   string
		prepared bool // Prepared.Do rejects it too
	}{
		// Negatives are invalid in any graph: Validate rejects them on
		// both surfaces.
		{"sources negative", cfpq.Request{Nonterminal: "S", Sources: []int{-1}}, "sources", "negative node id", true},
		{"targets negative", cfpq.Request{Nonterminal: "S", Targets: []int{-7}}, "targets", "negative node id", true},
		// Too-large ids are checked against the bound graph's size on
		// Engine.Do; Prepared.Do deliberately tolerates them (its graph
		// can grow under AddEdges, and an unknown node has no pairs).
		{"sources high", cfpq.Request{Nonterminal: "S", Sources: []int{99}}, "sources", "out of range [0,", false},
		{"targets high", cfpq.Request{Nonterminal: "S", Targets: []int{0, 99}}, "targets", "out of range [0,", false},
	}
	for _, tc := range cases {
		engReq := tc.req
		engReq.Graph, engReq.Grammar = g, gram
		surfaces := map[string]error{
			"Engine.Do": func() error { _, err := eng.Do(ctx, engReq); return err }(),
		}
		if tc.prepared {
			surfaces["Prepared.Do"] = func() error { _, err := p.Do(ctx, tc.req); return err }()
		}
		for surface, doErr := range surfaces {
			var reqErr *cfpq.RequestError
			if !errors.As(doErr, &reqErr) {
				t.Errorf("%s %s: %v, want *RequestError", surface, tc.name, doErr)
				continue
			}
			if reqErr.Field != tc.field {
				t.Errorf("%s %s: Field = %q, want %q", surface, tc.name, reqErr.Field, tc.field)
			}
			if !strings.Contains(reqErr.Reason, tc.reason) {
				t.Errorf("%s %s: Reason = %q, want %q", surface, tc.name, reqErr.Reason, tc.reason)
			}
		}
		if !tc.prepared {
			// The tolerant surface masks the unknown id and answers for
			// the ids that do exist — same as dropping 99 by hand.
			res, err := p.Do(ctx, tc.req)
			if err != nil {
				t.Fatalf("Prepared.Do %s: %v", tc.name, err)
			}
			valid := tc.req
			if valid.Sources != nil {
				valid.Sources = dropOutOfRange(valid.Sources, g.Nodes())
			}
			if valid.Targets != nil {
				valid.Targets = dropOutOfRange(valid.Targets, g.Nodes())
			}
			want, err := p.Do(ctx, valid)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want.Count {
				t.Errorf("Prepared.Do %s: count %d, want %d (unknown ids masked)", tc.name, res.Count, want.Count)
			}
		}
	}
}

// dropOutOfRange filters a restriction to ids the graph actually has.
func dropOutOfRange(ids []int, n int) []int {
	out := []int{}
	for _, id := range ids {
		if id >= 0 && id < n {
			out = append(out, id)
		}
	}
	return out
}

// TestDoEmptyRestrictionStrategy pins satellite 1 on the library surface:
// a non-nil empty restriction is a frontier with zero seeds — it runs the
// frontier plan (observable in Explain) and selects nothing — while nil
// stays unrestricted. Prepared.Do answers the same way from its cache.
func TestDoEmptyRestrictionStrategy(t *testing.T) {
	ctx := context.Background()
	g, gram := figure5()
	eng := cfpq.NewEngine(cfpq.Dense)

	res, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Sources: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Strategy != cfpq.StrategySourceFrontier || res.Explain.Frontier != 0 {
		t.Fatalf("empty sources: strategy %s frontier %d, want %s with an empty frontier",
			res.Explain.Strategy, res.Explain.Frontier, cfpq.StrategySourceFrontier)
	}
	if res.Count != 0 || len(res.AllPairs()) != 0 {
		t.Fatalf("empty sources selected %d pairs, want 0", res.Count)
	}

	res, err = eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Targets: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Strategy != cfpq.StrategyTargetFrontier || res.Count != 0 {
		t.Fatalf("empty targets: strategy %s count %d, want %s with 0 pairs",
			res.Explain.Strategy, res.Count, cfpq.StrategyTargetFrontier)
	}

	full, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	if full.Count == 0 {
		t.Fatal("nil restriction must stay unrestricted (figure 5 has S-pairs)")
	}

	p, err := eng.Prepare(ctx, g.Clone(), gram)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []cfpq.Request{
		{Nonterminal: "S", Sources: []int{}},
		{Nonterminal: "S", Sources: []int{}, Output: cfpq.OutputCount},
		{Nonterminal: "S", Targets: []int{}},
		{Nonterminal: "S", Sources: []int{}, Targets: []int{0, 1, 2}},
	} {
		res, err := p.Do(ctx, req)
		if err != nil {
			t.Fatalf("Prepared.Do %+v: %v", req, err)
		}
		if res.Count != 0 || len(res.AllPairs()) != 0 {
			t.Fatalf("Prepared.Do %+v: %d pairs, want 0", req, res.Count)
		}
	}
}

// TestResultTruncated pins satellite 2: a limit that clips the pair list
// sets Result.Truncated on both Do surfaces; a limit the relation fits
// under does not.
func TestResultTruncated(t *testing.T) {
	ctx := context.Background()
	g, gram := figure5()
	eng := cfpq.NewEngine(cfpq.Sparse)

	full, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || full.Count < 2 {
		t.Fatalf("unlimited result: count %d truncated %v", full.Count, full.Truncated)
	}

	p, err := eng.Prepare(ctx, g.Clone(), gram)
	if err != nil {
		t.Fatal(err)
	}
	do := map[string]func(cfpq.Request) (*cfpq.Result, error){
		"Engine.Do": func(req cfpq.Request) (*cfpq.Result, error) {
			req.Graph, req.Grammar = g, gram
			return eng.Do(ctx, req)
		},
		"Prepared.Do": func(req cfpq.Request) (*cfpq.Result, error) { return p.Do(ctx, req) },
	}
	for surface, run := range do {
		res, err := run(cfpq.Request{Nonterminal: "S", Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 1 || !res.Truncated {
			t.Errorf("%s limit 1 of %d: count %d truncated %v, want a truncated single pair",
				surface, full.Count, res.Count, res.Truncated)
		}
		res, err = run(cfpq.Request{Nonterminal: "S", Limit: full.Count})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != full.Count || res.Truncated {
			t.Errorf("%s limit == |R|: count %d truncated %v, want the exact relation unflagged",
				surface, res.Count, res.Truncated)
		}
	}
}

// TestResultTruncatedPaths is the paths-output mirror of
// TestResultTruncated: a Limit that clips the path enumeration sets
// Result.Truncated (the enumerator looks one path past the limit), on both
// the planner's paths strategy and the cached-index read; a limit the
// enumeration fits under does not.
func TestResultTruncatedPaths(t *testing.T) {
	ctx := context.Background()
	// A diamond: exactly two witness paths 0→3 (via 1 and via 2).
	g := cfpq.NewGraph(0)
	g.AddEdge(0, "x", 1)
	g.AddEdge(1, "x", 3)
	g.AddEdge(0, "x", 2)
	g.AddEdge(2, "x", 3)
	gram := cfpq.MustParseGrammar("S -> x | x S")
	eng := cfpq.NewEngine(cfpq.Sparse)
	p, err := eng.Prepare(ctx, g.Clone(), gram)
	if err != nil {
		t.Fatal(err)
	}
	do := map[string]func(cfpq.Request) (*cfpq.Result, error){
		"Engine.Do": func(req cfpq.Request) (*cfpq.Result, error) {
			req.Graph, req.Grammar = g, gram
			return eng.Do(ctx, req)
		},
		"Prepared.Do": func(req cfpq.Request) (*cfpq.Result, error) { return p.Do(ctx, req) },
	}
	base := cfpq.Request{
		Nonterminal: "S", Sources: []int{0}, Targets: []int{3}, Output: cfpq.OutputPaths,
	}
	for surface, run := range do {
		req := base
		req.Limit = 1
		res, err := run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 1 || !res.Truncated || len(res.AllPaths()) != 1 {
			t.Errorf("%s limit 1 of 2 paths: count %d truncated %v, want a truncated single path",
				surface, res.Count, res.Truncated)
		}
		req.Limit = 2
		res, err = run(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 2 || res.Truncated {
			t.Errorf("%s limit == #paths: count %d truncated %v, want both paths unflagged",
				surface, res.Count, res.Truncated)
		}
	}
}

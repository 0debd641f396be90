package cfpq_test

// Property tests for the per-pass trace at the public API. The trace's
// load-bearing invariant is that per-nonterminal nnz deltas telescope:
// each pass's Before counts equal the previous pass's After counts — also
// through a source-restricted evaluation whose frontier reaches every row —
// so the summed deltas of the start nonterminal equal the bits the
// evaluation added to its relation. For a fresh unrestricted run that sum
// is exactly the final relation size; for an incremental update it is
// exactly the pairs the update derived.

import (
	"context"
	"math/rand"
	"testing"

	"cfpq"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

// startDelta sums the per-pass nnz deltas of one nonterminal.
func startDelta(passes []cfpq.PassEvent, nt string) int {
	total := 0
	for _, ev := range passes {
		for _, z := range ev.NNZ {
			if z.Nonterminal == nt {
				total += z.Delta()
			}
		}
	}
	return total
}

// checkChained fails unless consecutive events chain per nonterminal
// (Before of pass k == After of pass k-1) and pass numbers ascend from 0.
func checkChained(t *testing.T, passes []cfpq.PassEvent) {
	t.Helper()
	prev := map[string]int{}
	for k, ev := range passes {
		if ev.Pass != k {
			t.Fatalf("pass %d numbered %d", k, ev.Pass)
		}
		for _, z := range ev.NNZ {
			if k > 0 && z.Before != prev[z.Nonterminal] {
				t.Fatalf("pass %d %s: before=%d, previous after=%d (phase %s)",
					k, z.Nonterminal, z.Before, prev[z.Nonterminal], ev.Phase)
			}
			if z.After < z.Before {
				t.Fatalf("pass %d %s: nnz shrank %d -> %d", k, z.Nonterminal, z.Before, z.After)
			}
			prev[z.Nonterminal] = z.After
		}
	}
}

func TestTraceDeltasEqualRelationSizeProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	cfg := grammar.DefaultRandomConfig()
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for _, be := range cfpq.Backends() {
		eng := cfpq.NewEngine(be)
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

			res, err := eng.Do(ctx, cfpq.Request{
				Graph: g, Grammar: gram, Nonterminal: start,
				Output: cfpq.OutputCount, Trace: true,
			})
			if err != nil {
				continue // e.g. a grammar the CNF conversion rejects
			}
			passes := res.Explain.Passes
			if len(passes) == 0 {
				t.Fatalf("%s trial %d: traced run returned no passes", be, trial)
			}
			checkChained(t, passes)
			if got := startDelta(passes, start); got != res.Count {
				t.Errorf("%s trial %d: summed %s deltas = %d, relation size = %d",
					be, trial, start, got, res.Count)
			}
			for _, ev := range passes {
				if ev.Nodes != g.Nodes() {
					t.Errorf("%s trial %d: pass %d nodes = %d, graph has %d",
						be, trial, ev.Pass, ev.Nodes, g.Nodes())
				}
				if ev.Bytes <= 0 {
					t.Errorf("%s trial %d: pass %d bytes = %d", be, trial, ev.Pass, ev.Bytes)
				}
			}
			if res.Stats.Duration <= 0 {
				t.Errorf("%s trial %d: stats.Duration = %v", be, trial, res.Stats.Duration)
			}
		}
	}
}

func TestTraceChainsAcrossFrontierFallback(t *testing.T) {
	// Every node of a chain is a source, so the frontier holds every row
	// from the seeding on. There is no fallback to hand over to: the
	// evaluation stays in the one "frontier" phase to the end, its events
	// chain, and Saturated says the restriction saved nothing.
	ctx := context.Background()
	gram := cfpq.MustParseGrammar("S -> a S | a")
	for _, be := range cfpq.Backends() {
		eng := cfpq.NewEngine(be)
		n := 24
		g := cfpq.NewGraph(n)
		for v := 0; v+1 < n; v++ {
			g.AddEdge(v, "a", v+1)
		}
		sources := make([]int, 0, n)
		for v := 0; v < n; v++ {
			sources = append(sources, v)
		}
		res, err := eng.Do(ctx, cfpq.Request{
			Graph: g, Grammar: gram, Nonterminal: "S",
			Sources: sources, Output: cfpq.OutputCount, Trace: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if len(res.Explain.Passes) == 0 {
			t.Fatalf("%s: no passes", be)
		}
		checkChained(t, res.Explain.Passes)
		// The relation is all (i,j) with i<j: summed start deltas must
		// equal its size regardless of which schedule(s) ran.
		want := n * (n - 1) / 2
		if got := startDelta(res.Explain.Passes, "S"); got != want {
			t.Errorf("%s: summed deltas = %d, want %d", be, got, want)
		}
		if !res.Explain.Saturated || res.Explain.Frontier != n {
			t.Fatalf("%s: all %d nodes as sources: saturated=%v frontier=%d", be, n, res.Explain.Saturated, res.Explain.Frontier)
		}
		for k, ev := range res.Explain.Passes {
			if ev.Phase != "frontier" || (ev.Products == 0) != (k == 0) || ev.Frontier != n || ev.Saturation() != 1 {
				t.Errorf("%s: event %d is %q with %d products and frontier %d; want a seed event and then passes, all \"frontier\" over %d rows",
					be, k, ev.Phase, ev.Products, ev.Frontier, n)
			}
		}
	}
}

func TestTraceUpdateDeltasEqualDerivedPairs(t *testing.T) {
	// Incremental updates re-base the trace on the pre-update index, so the
	// summed start-nonterminal deltas of the update's events are exactly
	// the pairs the update derived. A context trace observes them;
	// Prepared.AddEdges has no Request to set Trace on.
	gram := cfpq.MustParseGrammar("S -> a S b | a b")
	for _, be := range cfpq.Backends() {
		var events []cfpq.PassEvent
		ctx := cfpq.WithTraceContext(context.Background(), &cfpq.Trace{
			Pass: func(ev cfpq.PassEvent) {
				// Copy: the hook's slices are not retained by contract.
				cp := ev
				cp.NNZ = append([]cfpq.NNZ(nil), ev.NNZ...)
				events = append(events, cp)
			},
		})
		eng := cfpq.NewEngine(be)
		g := cfpq.NewGraph(8)
		g.AddEdge(0, "a", 1)
		g.AddEdge(1, "b", 2)
		p, err := eng.Prepare(ctx, g, gram)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		before, err := p.Do(ctx, cfpq.Request{Nonterminal: "S", Output: cfpq.OutputCount})
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		events = events[:0]
		if _, err := p.AddEdges(ctx,
			cfpq.Edge{From: 1, Label: "a", To: 3},
			cfpq.Edge{From: 3, Label: "b", To: 4},
			cfpq.Edge{From: 4, Label: "b", To: 5},
		); err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		after, err := p.Do(ctx, cfpq.Request{Nonterminal: "S", Output: cfpq.OutputCount})
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: update fired no trace events", be)
		}
		for _, ev := range events {
			if ev.Phase != "update" {
				t.Errorf("%s: update event in phase %q", be, ev.Phase)
			}
		}
		if got, want := startDelta(events, "S"), after.Count-before.Count; got != want {
			t.Errorf("%s: summed update deltas = %d, derived pairs = %d", be, got, want)
		}
		if after.Count <= before.Count {
			t.Fatalf("%s: update derived nothing (%d -> %d)", be, before.Count, after.Count)
		}
	}
}

// TestOneContextTraceSeesBuildAndUpdate: one Trace on one context, handed
// to Prepare and then to AddEdges, sees the build's passes and then the
// update's — a handle's whole life on one hook — while the cached reads
// between them fire nothing.
func TestOneContextTraceSeesBuildAndUpdate(t *testing.T) {
	gram := cfpq.MustParseGrammar("S -> a S b | a b")
	for _, be := range cfpq.Backends() {
		var events []cfpq.PassEvent
		ctx := cfpq.WithTraceContext(context.Background(), &cfpq.Trace{
			Pass: func(ev cfpq.PassEvent) {
				cp := ev
				cp.NNZ = append([]cfpq.NNZ(nil), ev.NNZ...)
				events = append(events, cp)
			},
		})
		g := cfpq.NewGraph(6)
		g.AddEdge(0, "a", 1)
		g.AddEdge(1, "b", 2)
		p, err := cfpq.NewEngine(be).Prepare(ctx, g, gram)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		built := len(events)
		before, err := p.Do(ctx, cfpq.Request{Nonterminal: "S", Output: cfpq.OutputCount})
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if built == 0 || len(events) != built {
			t.Fatalf("%s: build fired %d events, the cached read %d; want some, then none", be, built, len(events)-built)
		}
		if got := startDelta(events, "S"); got != before.Count {
			t.Errorf("%s: build deltas sum to %d, the relation holds %d", be, got, before.Count)
		}
		if _, err := p.AddEdges(ctx,
			cfpq.Edge{From: 1, Label: "a", To: 3},
			cfpq.Edge{From: 3, Label: "b", To: 4},
			cfpq.Edge{From: 4, Label: "b", To: 5},
		); err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		after, err := p.Do(ctx, cfpq.Request{Nonterminal: "S", Output: cfpq.OutputCount})
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if len(events) == built {
			t.Fatalf("%s: the update fired no events on the build's trace", be)
		}
		for k, ev := range events {
			want := "full"
			if k >= built {
				want = "update"
			}
			if ev.Phase != want {
				t.Errorf("%s: event %d in phase %q, want %q", be, k, ev.Phase, want)
			}
		}
		if got, want := startDelta(events[built:], "S"), after.Count-before.Count; got != want || want <= 0 {
			t.Errorf("%s: update deltas sum to %d, derived pairs %d (want > 0)", be, got, want)
		}
	}
}

func TestCachedReadReportsDurationAndNoPasses(t *testing.T) {
	ctx := context.Background()
	gram := cfpq.MustParseGrammar("S -> a b")
	g := cfpq.NewGraph(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	eng := cfpq.NewEngine(cfpq.Sparse)
	p, err := eng.Prepare(ctx, g, gram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Do(ctx, cfpq.Request{Nonterminal: "S", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Strategy != cfpq.StrategyCachedRead {
		t.Fatalf("strategy = %s, want cached read", res.Explain.Strategy)
	}
	if len(res.Explain.Passes) != 0 {
		t.Errorf("cached read reported %d passes", len(res.Explain.Passes))
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("cached read stats.Duration = %v, want > 0", res.Stats.Duration)
	}
}

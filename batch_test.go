package cfpq_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"cfpq"
)

// testPrepared builds a small prepared handle over the chain
// 0 -a-> 1 -a-> 2 -b-> 3 -b-> 4 with S -> a S b | a b; the tests below
// compare batch answers against the handle's own single-request answers
// rather than assuming the relation.
func testPrepared(t *testing.T, be cfpq.Backend) *cfpq.Prepared {
	t.Helper()
	g := cfpq.NewGraph(5)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 4)
	gram := cfpq.MustParseGrammar("S -> a S b | a b")
	p, err := cfpq.NewEngine(be).Prepare(context.Background(), g, gram)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// read answers req from p. An error is reported with t.Error — so read is
// safe off the test goroutine — and answered with an empty Result.
func read(t testing.TB, p *cfpq.Prepared, req cfpq.Request) *cfpq.Result {
	t.Helper()
	res, err := p.Do(context.Background(), req)
	if err != nil {
		t.Errorf("Do(%+v): %v", req, err)
		return &cfpq.Result{}
	}
	return res
}

// relationOf reads R_nt from p: an unrestricted OutputPairs request.
func relationOf(t testing.TB, p *cfpq.Prepared, nt string) []cfpq.Pair {
	t.Helper()
	return read(t, p, cfpq.Request{Nonterminal: nt}).AllPairs()
}

// countOf reads |R_nt| from p: an unrestricted OutputCount request.
func countOf(t testing.TB, p *cfpq.Prepared, nt string) int {
	t.Helper()
	return read(t, p, cfpq.Request{Nonterminal: nt, Output: cfpq.OutputCount}).Count
}

func TestPreparedQueryBatchMatchesSingleQueries(t *testing.T) {
	for _, be := range cfpq.Backends() {
		p := testPrepared(t, be)
		reqs := []cfpq.Request{
			{Nonterminal: "S", Output: cfpq.OutputExists, Sources: []int{1}, Targets: []int{3}},
			{Nonterminal: "S", Output: cfpq.OutputExists, Sources: []int{0}, Targets: []int{3}},
			{Nonterminal: "S", Output: cfpq.OutputExists, Sources: []int{42}, Targets: []int{99}},
			{Nonterminal: "S", Output: cfpq.OutputCount},
			{Nonterminal: "S", Output: cfpq.OutputPairs},
			{Nonterminal: "S"}, // zero Output defaults to pairs
			{Nonterminal: "S", Output: cfpq.OutputCount, Sources: []int{0}},
			{Nonterminal: "S", Sources: []int{0, 1}},
		}
		res := p.QueryBatch(context.Background(), reqs)
		if len(res) != len(reqs) {
			t.Fatalf("%s: got %d results, want %d", be, len(res), len(reqs))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: request %d: unexpected error %v", be, i, r.Err)
			}
			if got, want := r.Result.Explain.Strategy, cfpq.StrategyCachedRead; got != want {
				t.Fatalf("%s: request %d: strategy %q, want %q", be, i, got, want)
			}
		}
		for i, r := range res {
			single := read(t, p, reqs[i])
			if r.Result.Exists != single.Exists || r.Result.Count != single.Count ||
				!slices.Equal(r.Result.AllPairs(), single.AllPairs()) {
				t.Errorf("%s: request %d: batch %+v, single Do %+v", be, i, r.Result, single)
			}
		}
		if res[2].Result.Exists {
			t.Errorf("%s: out-of-range exists answered true", be)
		}
	}
}

func TestQueryBatchPerRequestErrors(t *testing.T) {
	p := testPrepared(t, cfpq.Sparse)
	res := p.QueryBatch(context.Background(), []cfpq.Request{
		{Nonterminal: "Nope", Output: cfpq.OutputCount},
		{Nonterminal: "S", Output: "frobnicate"},
		{Nonterminal: "S", Expr: "a b"},
		{Output: cfpq.OutputCount},
		{Nonterminal: "S", Output: cfpq.OutputCount},
	})
	if res[0].Err == nil {
		t.Error("unknown non-terminal: expected per-request error")
	}
	var reqErr *cfpq.RequestError
	if res[1].Err == nil || !errors.As(res[1].Err, &reqErr) {
		t.Errorf("unknown output: expected a *RequestError, got %v", res[1].Err)
	}
	if res[2].Err == nil {
		t.Error("nonterminal+expr: expected per-request error")
	}
	if res[3].Err == nil {
		t.Error("no language: expected per-request error")
	}
	if res[4].Err != nil {
		t.Errorf("valid request after bad ones failed: %v", res[4].Err)
	}
}

func TestQueryBatchCancelledContext(t *testing.T) {
	p := testPrepared(t, cfpq.Sparse)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := p.QueryBatch(ctx, []cfpq.Request{{Nonterminal: "S", Output: cfpq.OutputCount}})
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Fatalf("cancelled batch: got %v, want context.Canceled", res[0].Err)
	}
}

// TestEngineQueryBatchOneShot: a one-shot batch is Prepare followed by
// Prepared.QueryBatch, and answers what Engine.Do evaluates from scratch.
func TestEngineQueryBatchOneShot(t *testing.T) {
	g := cfpq.NewGraph(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	gram := cfpq.MustParseGrammar("S -> a S b | a b")
	eng := cfpq.NewEngine(cfpq.Sparse)
	p, err := eng.Prepare(context.Background(), g, gram)
	if err != nil {
		t.Fatal(err)
	}
	res := p.QueryBatch(context.Background(), []cfpq.Request{
		{Nonterminal: "S", Output: cfpq.OutputCount},
		{Nonterminal: "S"},
	})
	full, err := eng.Do(context.Background(), cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := full.AllPairs()
	if res[0].Result.Count != len(pairs) {
		t.Errorf("batch count %d, Do returned %d pairs", res[0].Result.Count, len(pairs))
	}
	if !slices.Equal(res[1].Result.AllPairs(), pairs) {
		t.Errorf("batch pairs %v, Do %v", res[1].Result.AllPairs(), pairs)
	}
	if empty := p.QueryBatch(context.Background(), nil); empty != nil {
		t.Errorf("empty batch: got %v", empty)
	}
}

func TestPreparedSourceFilteredReads(t *testing.T) {
	for _, be := range cfpq.Backends() {
		p := testPrepared(t, be)
		full := relationOf(t, p, "S")
		if len(full) == 0 {
			t.Fatalf("%s: empty relation, test graph broken", be)
		}
		sources := []int{0, 2, 97} // 97 out of range: ignored
		inSrc := map[int]bool{0: true, 2: true}
		var want []cfpq.Pair
		for _, pr := range full {
			if inSrc[pr.I] {
				want = append(want, pr)
			}
		}
		from := read(t, p, cfpq.Request{Nonterminal: "S", Sources: sources})
		if got := from.AllPairs(); !slices.Equal(got, want) {
			t.Errorf("%s: source-restricted pairs = %v, want %v", be, got, want)
		}
		if got := read(t, p, cfpq.Request{Nonterminal: "S", Sources: sources, Output: cfpq.OutputCount}).Count; got != len(want) {
			t.Errorf("%s: source-restricted count = %d, want %d", be, got, len(want))
		}
		var streamed []cfpq.Pair
		for pr := range from.Pairs() {
			streamed = append(streamed, pr)
		}
		if !slices.Equal(streamed, want) {
			t.Errorf("%s: streamed source-restricted pairs = %v, want %v", be, streamed, want)
		}
		if _, err := p.Do(context.Background(), cfpq.Request{Nonterminal: "Nope", Sources: sources}); err == nil {
			t.Errorf("%s: unknown non-terminal: no error", be)
		}
	}
}

// TestPreparedPairsFromEarlyBreak checks the iterator stops cleanly when
// the consumer does.
func TestPreparedPairsFromEarlyBreak(t *testing.T) {
	p := testPrepared(t, cfpq.Sparse)
	count := 0
	for range read(t, p, cfpq.Request{Nonterminal: "S", Sources: []int{0, 1, 2, 3, 4}}).Pairs() {
		count++
		break
	}
	if count != 1 {
		t.Fatalf("early break: saw %d pairs", count)
	}
	// No lock is held after the break: a write must not deadlock.
	if _, err := p.AddEdges(context.Background(), cfpq.Edge{From: 0, Label: "a", To: 3}); err != nil {
		t.Fatal(err)
	}
}

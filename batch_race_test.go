package cfpq_test

// Race test (meaningful under `go test -race .`, which CI runs for this
// package): QueryBatch and the source-filtered readers racing AddEdges on
// one Prepared handle, including edges that grow the node set mid-flight.

import (
	"context"
	"sync"
	"testing"

	"cfpq"
)

func TestQueryBatchRacesAddEdges(t *testing.T) {
	ctx := context.Background()
	g := cfpq.NewGraph(8)
	for i := 0; i < 7; i++ {
		g.AddEdge(i, "a", i+1)
	}
	g.AddEdge(7, "b", 0)
	gram := cfpq.MustParseGrammar("S -> a S b | a b")
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, gram)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		rounds  = 40
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res := p.QueryBatch(ctx, []cfpq.Request{
					{Nonterminal: "S", Output: cfpq.OutputCount},
					{Nonterminal: "S"},
					{Nonterminal: "S", Output: cfpq.OutputExists, Sources: []int{0}, Targets: []int{i % 16}},
					{Nonterminal: "S", Sources: []int{r, i % 8}},
					{Nonterminal: "S", Output: cfpq.OutputCount, Sources: []int{0, 1, 2}},
				})
				for _, re := range res {
					if re.Err != nil {
						t.Errorf("batch query error under race: %v", re.Err)
						return
					}
				}
				// The streamed reader participates in the race too.
				for range read(t, p, cfpq.Request{Nonterminal: "S", Sources: []int{i % 8}}).Pairs() {
					break
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Alternate between in-range edges and node-growing edges, so
			// batches race both delta patches and matrix Grow.
			e := cfpq.Edge{From: i % 8, Label: "a", To: (i + 1) % 8}
			if i%5 == 0 {
				e = cfpq.Edge{From: i % 8, Label: "b", To: 8 + i}
			}
			if _, err := p.AddEdges(ctx, e); err != nil {
				t.Errorf("AddEdges under race: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// After the dust settles, a batch must agree with the single-query
	// surface on the final state.
	res := p.QueryBatch(ctx, []cfpq.Request{{Nonterminal: "S", Output: cfpq.OutputCount}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if got, want := res[0].Result.Count, countOf(t, p, "S"); got != want {
		t.Fatalf("post-race count: batch %d, single %d", got, want)
	}
}

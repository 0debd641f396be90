package cfpq

import (
	"context"
	"errors"
	"testing"
)

// TestPreparedSugarCancellation pins the cancellation contract of the
// handle's read surface: under a cancelled context every Request shape —
// exists, count, pairs, source-restricted pairs and counts, paths — fails
// with context.Canceled from Do without touching the index, and so does
// every answer of a QueryBatch.
func TestPreparedSugarCancellation(t *testing.T) {
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	p := mustPrepare(t, NewEngine(Sparse), g, "S -> a b")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	reqs := []Request{
		{Nonterminal: "S"},
		{Nonterminal: "S", Sources: []int{0}, Targets: []int{2}, Output: OutputExists},
		{Nonterminal: "S", Output: OutputCount},
		{Nonterminal: "S", Sources: []int{0}},
		{Nonterminal: "S", Sources: []int{0}, Output: OutputCount},
		{Nonterminal: "S", Sources: []int{0}, Targets: []int{2}, Output: OutputPaths},
	}
	for _, req := range reqs {
		if _, err := p.Do(ctx, req); !errors.Is(err, context.Canceled) {
			t.Errorf("Do(%+v) err = %v, want context.Canceled", req, err)
		}
	}
	for i, br := range p.QueryBatch(ctx, reqs) {
		if br.Result != nil || !errors.Is(br.Err, context.Canceled) {
			t.Errorf("QueryBatch[%d] = %+v, want context.Canceled", i, br)
		}
	}

	// A live ctx still answers: cancellation is the only thing the
	// context changes.
	live := context.Background()
	if res, err := p.Do(live, reqs[1]); err != nil || !res.Exists {
		t.Errorf("exists(live) = %+v, %v, want true", res, err)
	}
	if res, err := p.Do(live, reqs[2]); err != nil || res.Count != 1 {
		t.Errorf("count(live) = %+v, %v, want 1", res, err)
	}
}

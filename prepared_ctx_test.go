package cfpq

import (
	"context"
	"errors"
	"testing"
)

// TestPreparedSugarCancellation pins the contract the ctx-first sugar
// signatures promise: a cancelled context yields the documented zero
// answers without touching the index, and Do reports the cancellation as
// a typed error.
func TestPreparedSugarCancellation(t *testing.T) {
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	p := mustPrepare(t, NewEngine(Sparse), g, "S -> a b")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := p.Do(ctx, Request{Nonterminal: "S"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do err = %v, want context.Canceled", err)
	}
	if p.Has(ctx, "S", 0, 2) {
		t.Error("Has answered true under a cancelled ctx")
	}
	if n := p.Count(ctx, "S"); n != 0 {
		t.Errorf("Count = %d under a cancelled ctx, want 0", n)
	}
	if pairs := p.Relation(ctx, "S"); pairs != nil {
		t.Errorf("Relation = %v under a cancelled ctx, want nil", pairs)
	}
	if pairs := p.RelationFrom(ctx, "S", []int{0}); pairs != nil {
		t.Errorf("RelationFrom = %v under a cancelled ctx, want nil", pairs)
	}
	if n := p.CountFrom(ctx, "S", []int{0}); n != 0 {
		t.Errorf("CountFrom = %d under a cancelled ctx, want 0", n)
	}
	for range p.Pairs(ctx, "S") {
		t.Error("Pairs streamed a pair under a cancelled ctx")
	}
	for range p.PairsFrom(ctx, "S", []int{0}) {
		t.Error("PairsFrom streamed a pair under a cancelled ctx")
	}
	for range p.Paths(ctx, "S", 0, 2, AllPathsOptions{}) {
		t.Error("Paths streamed a path under a cancelled ctx")
	}

	// A live ctx still answers: cancellation is the only thing the new
	// parameter changes.
	live := context.Background()
	if !p.Has(live, "S", 0, 2) {
		t.Error("Has(live) = false, want true")
	}
	if n := p.Count(live, "S"); n != 1 {
		t.Errorf("Count(live) = %d, want 1", n)
	}
}

package graph

import "testing"

func TestReverse(t *testing.T) {
	g := New(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	r := Reverse(g)
	if r.Nodes() != 3 || r.EdgeCount() != 2 {
		t.Fatalf("reverse stats: %v", r.Stats())
	}
	if !r.HasEdge(1, "a", 0) || !r.HasEdge(2, "b", 1) {
		t.Error("edges not flipped")
	}
	if r.HasEdge(0, "a", 1) {
		t.Error("original direction survived")
	}
	// Double reversal is the identity.
	rr := Reverse(r)
	if !rr.HasEdge(0, "a", 1) || !rr.HasEdge(1, "b", 2) || rr.EdgeCount() != 2 {
		t.Error("double reversal broken")
	}
}

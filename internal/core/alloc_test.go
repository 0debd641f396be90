package core

import (
	"context"
	"runtime"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/graphgen"
)

// allocated returns the heap bytes fn allocated, live or not.
func allocated(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestClosureAllocatesNothingPerPass guards the fixed cost of the fixpoint
// loop on the deepest benchmark input, graphgen's 10⁴-node chain under
// S → a S b | a b: 1024 passes, each deriving one pair. An evaluation may
// allocate what it holds — the two frontier sets, once, and the rows of the
// pairs it derives — but nothing the size of the node range per pass or per
// product: one n-row list per pass is 245 MB here (the in-place loop this
// one replaced allocated 380 MB for the same 1 MB index). The bounds leave
// a few times what the loop needs today.
func TestClosureAllocatesNothingPerPass(t *testing.T) {
	const n = 10_000
	full, err := graphgen.Generate(graphgen.Spec{Kind: graphgen.KindChain, Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	cnf := grammar.MustCNF(grammar.MustParse("S -> a S b | a b"))
	ctx := context.Background()
	e := NewEngine()

	ix := e.Init(full, cnf)
	var stats Stats
	if got := allocated(func() { stats, err = e.CloseContext(ctx, ix) }); err != nil || got >= 16<<20 {
		t.Errorf("cold closure allocated %d bytes over %d passes (err %v), want < 16 MB", got, stats.Iterations, err)
	}
	if stats.Iterations < 1000 {
		t.Fatalf("the chain closed in %d passes: not the deep input this guard needs", stats.Iterations)
	}

	// The same depth as an update: close the chain without the edge that
	// joins its a-run to its b-run — no pair derives — then add it, and the
	// one edge derives every pair of the closure, a pass at a time. What an
	// update holds: the two frontier sets, and one accumulator of the
	// returned Delta per non-terminal that gained a pair.
	var joint graph.Edge
	cut := graph.New(n)
	for _, ed := range full.Edges() {
		if ed.Label == "a" && full.HasEdge(ed.To, "b", ed.To+1) {
			joint = ed
			continue
		}
		cut.AddEdge(ed.From, ed.Label, ed.To)
	}
	ix, _, err = e.RunContext(ctx, cut, cnf)
	if err != nil || ix.Count("S") != 0 {
		t.Fatalf("closure of the cut chain: %d S-pairs, err %v", ix.Count("S"), err)
	}
	matrixBytes := int64(cnf.NonterminalCount()) * 24 * n
	bound := 3*matrixBytes + 256<<10
	var delta *Delta
	if got := allocated(func() { stats, delta, err = e.UpdateContext(ctx, ix, joint) }); err != nil || got >= bound {
		t.Errorf("one-edge update allocated %d bytes over %d passes (err %v), want < %d", got, stats.Iterations, err, bound)
	}
	if stats.Iterations < 1000 || len(delta.Pairs("S")) != ix.Count("S") || ix.Count("S") == 0 {
		t.Fatalf("the joining edge derived %d of %d S-pairs in %d passes: not the deep update this guard needs",
			len(delta.Pairs("S")), ix.Count("S"), stats.Iterations)
	}
}

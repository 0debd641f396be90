package core

import (
	"context"
	"runtime"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/graphgen"
)

// allocated returns the heap bytes fn allocated, live or not, and the
// number of heap objects it allocated them in.
func allocated(fn func()) (bytes, mallocs int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc), int64(after.Mallocs - before.Mallocs)
}

// TestClosureAllocatesNothingPerPass guards the fixed cost of the fixpoint
// loop on the deepest benchmark input, graphgen's 10⁴-node chain under
// S → a S b | a b: 1024 passes, each deriving one pair. An evaluation may
// allocate what it holds — the two frontier sets, once, and the rows of the
// pairs it derives — but nothing the size of the node range per pass or per
// product: one n-row list per pass is 245 MB here (the in-place loop this
// one replaced allocated 380 MB for the same 1 MB index). The byte bounds
// leave a few times what the loop needs today.
//
// The malloc bounds pin the count of heap objects instead, at today's
// count plus half an object per pass: about three per pass go to the rows
// of the derived pairs, and one more per pass — a trace argument built
// while tracing is off, say fmt.Sprintf at the pass hook — breaks them.
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
	got, mallocs := allocated(func() { stats, err = e.CloseContext(ctx, ix) })
	if err != nil || got >= 16<<20 {
		t.Errorf("cold closure allocated %d bytes over %d passes (err %v), want < 16 MB", got, stats.Iterations, err)
	}
	if bound := int64(3124 + stats.Iterations/2); mallocs >= bound {
		t.Errorf("cold closure made %d mallocs over %d passes, want < %d", mallocs, stats.Iterations, bound)
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
	got, mallocs = allocated(func() { stats, delta, err = e.UpdateContext(ctx, ix, joint) })
	if err != nil || got >= bound {
		t.Errorf("one-edge update allocated %d bytes over %d passes (err %v), want < %d", got, stats.Iterations, err, bound)
	}
	if bound := int64(4170 + stats.Iterations/2); mallocs >= bound {
		t.Errorf("one-edge update made %d mallocs over %d passes, want < %d", mallocs, stats.Iterations, bound)
	}
	if stats.Iterations < 1000 || len(delta.Pairs("S")) != ix.Count("S") || ix.Count("S") == 0 {
		t.Fatalf("the joining edge derived %d of %d S-pairs in %d passes: not the deep update this guard needs",
			len(delta.Pairs("S")), ix.Count("S"), stats.Iterations)
	}
}

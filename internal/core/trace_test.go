package core

import (
	"context"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

func traceTestIndex(t *testing.T) (*Engine, *Index) {
	t.Helper()
	g := graph.New(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	cnf, err := grammar.ToCNF(grammar.MustParse("S -> a b"))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	ix, _, err := e.RunContext(context.Background(), g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	return e, ix
}

func TestNewPassTracerNilWhenDisabled(t *testing.T) {
	e, ix := traceTestIndex(t)
	if pt := e.newPassTracer(context.Background(), "full", ix); pt != nil {
		t.Fatal("tracer allocated with no trace installed")
	}
	// An installed but hook-less trace is equally disabled.
	if pt := e.newPassTracer(WithTraceContext(context.Background(), &Trace{}), "full", ix); pt != nil {
		t.Fatal("tracer allocated for a trace with no hooks")
	}
}

func TestDisabledTracerCostsNoAllocations(t *testing.T) {
	// The disabled state is a nil *passTracer threaded through the closure
	// loop: every per-pass hook must be a pointer test, never an
	// allocation or an nnz scan.
	var pt *passTracer
	allocs := testing.AllocsPerRun(1000, func() {
		pt.snapshot()
		pt.beginPass()
		pt.endPass(3, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f per pass, want 0", allocs)
	}
}

func TestUntracedRunAllocatesNoEvents(t *testing.T) {
	// End to end: an untraced evaluation and a traced one of the same
	// instance must agree on the index while the untraced one never
	// constructs PassEvents (the traced run observing >0 events proves
	// the hook path is live, so the nil path is the one under test).
	g := graph.New(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	cnf, err := grammar.ToCNF(grammar.MustParse("S -> a S b | a b"))
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	traced := WithTraceContext(context.Background(), &Trace{Pass: func(PassEvent) { events++ }})
	e := NewEngine()
	if _, _, err := e.RunContext(traced, g, cnf); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("traced run fired no events")
	}
	if _, _, err := e.RunContext(context.Background(), g, cnf); err != nil {
		t.Fatal(err)
	}
}

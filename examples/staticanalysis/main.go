// Staticanalysis expresses a points-to analysis as a context-free path
// query — the CFL-reachability application the paper's related-work section
// motivates (Reps; Zhang & Su).
//
// We model a tiny program as a graph: variables and heap objects are nodes;
// an allocation x = new O adds  x --alloc_r--> O  (and O --alloc--> x);
// an assignment  x = y  adds    x --assign_r--> y (value flows y → x).
//
// Two variables x, y may alias when they can reach a common allocation
// site, i.e. when the word along x … O … y matches
//
//	Alias     → FlowsTo⁻¹ FlowsTo
//	FlowsTo   → alloc Assigns        (object flows through assignments)
//	Assigns   → assign Assigns | eps
//
// which after inversion becomes the grammar below over the edge labels we
// actually store. This is the classic "may-alias via CFL-reachability"
// formulation restricted to assignments.
//
// Run with:
//
//	go run ./examples/staticanalysis
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"cfpq"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run holds the whole example; main is a thin shell so the package's smoke
// test can drive the same logic against a buffer.
func run(w io.Writer) error {
	ctx := context.Background()
	eng := cfpq.NewEngine(cfpq.Sparse)

	// Program:
	//	o1: a = new Obj()
	//	o2: b = new Obj()
	//	c = a
	//	d = c
	//	e = b
	vars := []string{"a", "b", "c", "d", "e", "o1", "o2"}
	id := map[string]int{}
	for i, v := range vars {
		id[v] = i
	}
	g := cfpq.NewGraph(len(vars))
	addAlloc := func(v, obj string) {
		g.AddEdge(id[v], "alloc_r", id[obj])
		g.AddEdge(id[obj], "alloc", id[v])
	}
	addAssign := func(dst, src string) {
		g.AddEdge(id[dst], "assign_r", id[src])
		g.AddEdge(id[src], "assign", id[dst])
	}
	addAlloc("a", "o1")
	addAlloc("b", "o2")
	addAssign("c", "a")
	addAssign("d", "c")
	addAssign("e", "b")

	// PointsTo: variable → allocation site it may point to.
	//	PointsTo → assign_r PointsTo | alloc_r
	// Alias: two variables pointing to a common site.
	//	Alias → PointsTo FlowsTo
	//	FlowsTo → alloc | alloc Flows
	//	Flows → assign | assign Flows
	gram := cfpq.MustParseGrammar(`
		PointsTo -> assign_r PointsTo | alloc_r
		FlowsTo  -> alloc | alloc Flows
		Flows    -> assign | assign Flows
		Alias    -> PointsTo FlowsTo
	`)

	pt, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "PointsTo"})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "PointsTo relation (variable → allocation site):")
	for p := range pt.Pairs() {
		fmt.Fprintf(w, "  %s → %s\n", vars[p.I], vars[p.J])
	}

	al, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "Alias"})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nMay-alias pairs:")
	for p := range al.Pairs() {
		if p.I < p.J { // symmetric; print each unordered pair once
			fmt.Fprintf(w, "  %s ~ %s\n", vars[p.I], vars[p.J])
		}
	}

	// Sanity: a, c, d share o1; b, e share o2; the groups must not mix.
	fmt.Fprintln(w, "\nExpected: {a,c,d} alias via o1; {b,e} alias via o2; no cross pairs.")
	return nil
}

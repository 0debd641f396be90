// Quickstart replays the paper's worked example (Section 4.3) end to end
// through the public API: the same-generation grammar of Figures 3/4, the
// 3-node graph of Figure 5, the iteration states T₀…T₆ of Figures 6–8, and
// the final context-free relations of Figure 9.
//
// Run with:
//
//	go run ./examples/quickstart
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

	// The grammar G' of Figure 4 — the same-generation query in Chomsky
	// Normal Form, with the paper's auxiliary non-terminal names. (The
	// library normalises arbitrary grammars itself; we feed the paper's
	// CNF so the matrices match the figures symbol for symbol.)
	gram := cfpq.MustParseGrammar(`
		S  -> S1 S5 | S3 S6 | S1 S2 | S3 S4
		S5 -> S S2
		S6 -> S S4
		S1 -> subClassOf_r
		S2 -> subClassOf
		S3 -> type_r
		S4 -> type
	`)
	cnf, err := cfpq.ToCNF(gram)
	if err != nil {
		return err
	}

	// The input graph of Figure 5.
	g := cfpq.NewGraph(3)
	g.AddEdge(0, "subClassOf_r", 0)
	g.AddEdge(0, "type_r", 1)
	g.AddEdge(1, "type_r", 2)
	g.AddEdge(2, "subClassOf", 0)
	g.AddEdge(2, "type", 2)

	fmt.Fprintln(w, "Input graph (Figure 5):")
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "  %d --%s--> %d\n", e.From, e.Label, e.To)
	}
	fmt.Fprintln(w)

	// Algorithm1 is the paper's loop verbatim — every pass multiplies a
	// snapshot of the previous state, T ← T ∪ (T × T) — so the states it
	// visits are exactly the paper's Tᵢ (Figures 6–8). Engines walk the
	// same states, multiplying only what the previous pass added.
	ix, stats := cfpq.Algorithm1(cfpq.Dense, g, cnf, func(k int, ix *cfpq.Index) {
		fmt.Fprintf(w, "T%d =\n%s\n", k, ix.FormatMatrix())
	})
	fmt.Fprintf(w, "Fixpoint after %d iterations (paper: T6 = T5).\n\n", stats.Iterations)

	// The context-free relations of Figure 9.
	fmt.Fprintln(w, "Context-free relations:")
	for _, nt := range []string{"S", "S1", "S2", "S3", "S4", "S5", "S6"} {
		fmt.Fprintf(w, "  R_%-3s = %v\n", nt, ix.Relation(nt))
	}
	fmt.Fprintln(w)

	// Section 5: single-path semantics — a concrete witness per pair.
	px, err := cfpq.NewEngine(cfpq.Dense).SinglePath(ctx, g, cnf)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Single-path witnesses for R_S:")
	for _, lp := range px.Relation("S") {
		path, _ := px.Path("S", lp.I, lp.J)
		labels := make([]string, len(path))
		for i, e := range path {
			labels[i] = e.Label
		}
		fmt.Fprintf(w, "  (%d,%d) length %d: %v\n", lp.I, lp.J, lp.Length, labels)
	}
	return nil
}

// Ontology runs the paper's two evaluation queries — same-layer (Query 1,
// Figure 10) and adjacent-layer (Query 2, Figure 11) — on one of the
// synthetic ontology graphs, comparing both matrix backends through the
// public Engine API and showing single-path witnesses, i.e. the
// navigation-query workload the paper's evaluation section is built on.
//
// Run with:
//
//	go run ./examples/ontology            # default: the foaf-sized graph
//	go run ./examples/ontology -name wine
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cfpq"
	"cfpq/internal/baseline"
	"cfpq/internal/dataset"
)

func main() {
	name := flag.String("name", "foaf", "dataset name (see cmd/graphgen -list)")
	flag.Parse()
	if err := run(os.Stdout, *name); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run holds the whole example; main is a thin shell so the package's smoke
// test can drive the same logic against a buffer.
func run(w io.Writer, name string) error {
	ctx := context.Background()

	d, ok := dataset.ByName(name)
	if !ok {
		return fmt.Errorf("unknown dataset %q", name)
	}
	g := d.Build()
	fmt.Fprintf(w, "Dataset %s: %d triples → %v\n\n", d.Name, d.Triples, g.Stats())

	for q := 1; q <= 2; q++ {
		gram := dataset.Query(q)
		cnf := dataset.QueryCNF(q)
		fmt.Fprintf(w, "Query %d grammar:\n%s\n", q, gram)

		for _, be := range cfpq.Backends() {
			start := time.Now()
			ix, stats, err := cfpq.NewEngine(be).Evaluate(ctx, g, cnf)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-16s |R_S| = %-6d (%d passes, %d products, %v)\n",
				be.Name(), ix.Count("S"), stats.Iterations, stats.Products, time.Since(start).Round(time.Microsecond))
		}
		start := time.Now()
		rel := baseline.NewGLL(gram).Relation(g, "S")
		fmt.Fprintf(w, "  %-16s |R_S| = %-6d (%v)\n\n", "GLL baseline", len(rel), time.Since(start).Round(time.Microsecond))
	}

	// Single-path semantics on Query 2: print a few witness paths.
	eng := cfpq.NewEngine(cfpq.Sparse)
	px, err := eng.SinglePath(ctx, g, dataset.QueryCNF(2))
	if err != nil {
		return err
	}
	rel := px.Relation("S")
	fmt.Fprintf(w, "Query 2 single-path witnesses (%d pairs, first 5):\n", len(rel))
	for i, lp := range rel {
		if i == 5 {
			break
		}
		path, _ := px.Path("S", lp.I, lp.J)
		labels := make([]string, len(path))
		for k, e := range path {
			labels[k] = e.Label
		}
		fmt.Fprintf(w, "  (%d,%d) length %d: %v\n", lp.I, lp.J, lp.Length, labels)
	}
	return nil
}

//lint:file-allow cfpqlint/ctxflow bench harness: standalone CLI tooling with no caller context; runs on its own root context by design

// Package bench is the harness that regenerates the paper's evaluation:
// Table 1 (Query 1) and Table 2 (Query 2) over the 14 dataset graphs, for
// three of the four implementations the paper compares —
//
//	GLL   — the GLL-based baseline of Grigorev & Ragozina
//	dGPU  — dense matrices (here: the bit-packed dense kernel, 64 columns
//	        per word; the column is about the representation, not the device)
//	sCPU  — sparse CSR matrices
//
// — and not sGPU, a sparse kernel on a GPU this harness has no stand-in
// for; checking along the way that every implementation returns the same
// #results, exactly as the paper reports ("All implementations ... have the
// same #results"), plus the ablation studies (RunAblations). Both produce
// Tables; cmd/cfpq-bench prints them and the committed BENCH_paper.json is
// one run of it.
package bench

import (
	"context"
	"fmt"
	"io"

	"cfpq"
	"cfpq/internal/baseline"
	"cfpq/internal/dataset"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

// Impl is one measured implementation.
type Impl struct {
	// Name as it appears in the paper's table header.
	Name string
	// Run evaluates R_S and returns its size.
	Run func(g *graph.Graph) int
	// SkipSynthetic omits the implementation on the repeated graphs g1–g3
	// (the paper omits dGPU there: "a dense matrix representation leads to
	// a significant performance degradation with the graph size growth").
	SkipSynthetic bool
}

// Implementations returns the implementations the tables time for query q,
// in table-column order. The matrix implementations all evaluate through
// the public cfpq.Engine — the same surface the library, CLI and server
// expose — so the harness measures what users actually run.
func Implementations(q int) []Impl {
	gram := dataset.Query(q)
	cnf := grammar.MustCNF(gram)
	matrixImpl := func(be cfpq.Backend) func(g *graph.Graph) int {
		eng := cfpq.NewEngine(be)
		return func(g *graph.Graph) int {
			ix, _, err := eng.Evaluate(context.Background(), g, cnf)
			if err != nil {
				panic(err) // background context: unreachable
			}
			return ix.Count("S")
		}
	}
	return []Impl{
		{
			Name: "GLL",
			Run: func(g *graph.Graph) int {
				return len(baseline.NewGLL(gram).Relation(g, "S"))
			},
		},
		{Name: "dGPU", Run: matrixImpl(cfpq.Dense), SkipSynthetic: true},
		{Name: "sCPU", Run: matrixImpl(cfpq.Sparse)},
	}
}

// Config drives RunTable.
type Config struct {
	// Query selects Table 1 (1) or Table 2 (2).
	Query int
	// Repeats is the number of timed runs per cell. Zero means 3.
	Repeats int
	// MaxTriples, when positive, skips graphs with more paper-triples (for
	// quick runs).
	MaxTriples int
	// Log, when non-nil, receives per-cell progress.
	Log io.Writer
}

// RunTable measures every implementation over every dataset graph and
// returns the requested table in the paper's layout: ontology, #triples,
// #results, then one timed column per implementation (left empty where the
// paper omits it). It returns an error if two implementations disagree on
// #results for any graph.
func RunTable(cfg Config) (Table, error) {
	if cfg.Query != 1 && cfg.Query != 2 {
		return Table{}, fmt.Errorf("bench: query must be 1 or 2, got %d", cfg.Query)
	}
	impls := Implementations(cfg.Query)
	t := Table{
		Title:  fmt.Sprintf("Table %d: Evaluation results for Query %d", cfg.Query, cfg.Query),
		Header: []string{"Ontology", "#triples", "#results"},
	}
	for _, impl := range impls {
		t.Header = append(t.Header, impl.Name+"(ms)")
	}
	for _, d := range dataset.Graphs() {
		if cfg.MaxTriples > 0 && d.Triples > cfg.MaxTriples {
			continue
		}
		g := d.Build()
		results := -1
		times := make([]Cell, len(impls))
		for i, impl := range impls {
			if impl.SkipSynthetic && d.Synthetic {
				continue
			}
			timing, got := measure(cfg.Repeats, func() int { return impl.Run(g) })
			if results == -1 {
				results = got
			} else if got != results {
				return t, fmt.Errorf("bench: %s on %s: #results %d disagrees with %d",
					impl.Name, d.Name, got, results)
			}
			times[i] = timed(timing)
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "  %s/%s: %d results, %+v\n", d.Name, impl.Name, got, timing)
			}
		}
		t.Rows = append(t.Rows, append([]Cell{text(d.Name), num(d.Triples), num(results)}, times...))
	}
	return t, nil
}

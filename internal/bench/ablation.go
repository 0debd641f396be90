//lint:file-allow cfpqlint/ctxflow bench harness: standalone CLI tooling with no caller context; runs on its own root context by design
package bench

import (
	"context"

	"cfpq"
	"cfpq/internal/dataset"
	"cfpq/internal/graph"
)

// RunAblations executes the three ablation studies (cfpq-bench -ablation),
// each cell timed repeats times:
//
//  1. iteration schedule — the paper-literal snapshot iteration
//     T ← T ∪ (T_prev × T_prev) (cfpq.Algorithm1) versus the production
//     semi-naive loop — the same passes, multiplying only what the
//     previous one added (passes and time);
//  2. dense/sparse crossover — how the dense kernel degrades with graph
//     size, justifying the paper's omission of dGPU on g1–g3;
//  3. saturated frontier — what the planner's frontier strategies win over
//     the full closure on a directed grammar, and lose on the paper's
//     same-generation query, whose frontier reaches every row.
func RunAblations(repeats int) []Table {
	return []Table{
		ablationIterationSchedule(repeats),
		ablationDenseSparseCrossover(repeats),
		ablationSaturatedFrontier(repeats),
	}
}

// ablationOntologies are five real ontologies spanning the paper's sizes.
var ablationOntologies = []string{"skos", "foaf", "funding", "wine", "pizza"}

func buildDataset(name string) *graph.Graph {
	d, ok := dataset.ByName(name)
	if !ok {
		panic("bench: no dataset " + name) // names are this file's constants
	}
	return d.Build()
}

// timeClosure times the production closure of Query q — like the table
// harness, through the public cfpq.Engine — and returns its statistics.
func timeClosure(repeats int, g *graph.Graph, q int, be cfpq.Backend) (Timing, cfpq.Stats) {
	cnf := dataset.QueryCNF(q)
	eng := cfpq.NewEngine(be)
	return measure(repeats, func() cfpq.Stats {
		_, s, err := eng.Evaluate(context.Background(), g, cnf)
		if err != nil {
			panic(err) // background context: unreachable
		}
		return s
	})
}

func ablationIterationSchedule(repeats int) Table {
	t := Table{
		Title:  "Ablation 1: iteration schedule (Query 1, sparse backend)",
		Header: []string{"Ontology", "algorithm1", "semi-naive", "algorithm1(ms)", "semi-naive(ms)"},
	}
	cnf := dataset.QueryCNF(1)
	for _, name := range ablationOntologies {
		g := buildDataset(name)
		tRef, sRef := measure(repeats, func() cfpq.Stats {
			_, s := cfpq.Algorithm1(cfpq.Sparse, g, cnf, nil)
			return s
		})
		tSemi, sSemi := timeClosure(repeats, g, 1, cfpq.Sparse)
		t.Rows = append(t.Rows, []Cell{text(name), num(sRef.Iterations), num(sSemi.Iterations), timed(tRef), timed(tSemi)})
	}
	return t
}

func ablationDenseSparseCrossover(repeats int) Table {
	t := Table{
		Title:  "Ablation 2: dense vs sparse with graph size (Query 1, funding × k)",
		Header: []string{"copies", "nodes", "dense(ms)", "sparse(ms)", "ratio"},
	}
	base := buildDataset("funding")
	for _, k := range []int{1, 2, 4, 8} {
		g := graph.Repeat(base, k)
		tDense, _ := timeClosure(repeats, g, 1, cfpq.Dense)
		tSparse, _ := timeClosure(repeats, g, 1, cfpq.Sparse)
		t.Rows = append(t.Rows, []Cell{num(k), num(g.Nodes()), timed(tDense), timed(tSparse), ratio(tDense, tSparse)})
	}
	return t
}

// ablationSaturatedFrontier asks Engine.Do for the pairs leaving a class
// that has a superclass (sources) or entering that superclass (targets),
// and times it against the unrestricted closure the restriction is meant
// to avoid. The directed "ancestors" walk keeps a small frontier
// and wins; Query 1's inverse edges connect the whole hierarchy, so its
// frontier ends up being every row ("sat"): the lazily seeded evaluation
// does the full closure's work with the activation bookkeeping on top.
func ablationSaturatedFrontier(repeats int) Table {
	t := Table{
		Title:  "Ablation 3: frontier vs full closure for a one-node restriction (sparse backend)",
		Header: []string{"Ontology", "grammar", "restrict", "strategy", "frontier", "full(ms)", "planned(ms)"},
	}
	eng := cfpq.NewEngine(cfpq.Sparse)
	do := func(req cfpq.Request) *cfpq.Result {
		res, err := eng.Do(context.Background(), req)
		if err != nil {
			panic(err) // background context, in-range node: unreachable
		}
		return res
	}
	grammars := map[string]*cfpq.Grammar{
		"ancestors": cfpq.MustParseGrammar("S -> subClassOf S | subClassOf"),
		"query1":    dataset.Query(1),
	}
	for _, name := range ablationOntologies {
		g := buildDataset(name)
		edges := g.EdgesWithLabel("subClassOf")
		edge := edges[len(edges)-1]
		for _, gramName := range []string{"ancestors", "query1"} {
			full := cfpq.Request{Graph: g, Grammar: grammars[gramName], Nonterminal: "S"}
			tFull, _ := measure(repeats, func() *cfpq.Result { return do(full) })
			for _, side := range []string{"sources", "targets"} {
				req := full
				if side == "sources" {
					req.Sources = []int{edge.From}
				} else {
					req.Targets = []int{edge.To}
				}
				tPlan, res := measure(repeats, func() *cfpq.Result { return do(req) })
				frontier := num(res.Explain.Frontier)
				if res.Explain.Saturated {
					frontier = text("sat")
				}
				t.Rows = append(t.Rows, []Cell{text(name), text(gramName), text(side),
					text(string(res.Explain.Strategy)), frontier, timed(tFull), timed(tPlan)})
			}
		}
	}
	return t
}

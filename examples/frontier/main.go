// Frontier demonstrates the serving-workload APIs: declarative Requests
// evaluated by the planner (Engine.Do), which picks the source- or
// target-frontier strategy for restricted questions instead of the full
// n×n closure — Result.Explain records the choice — and batched
// evaluation (Prepared.QueryBatch), which coalesces many Requests against
// one (graph, grammar) pair into a single cached index build, every answer
// read from the same index version.
//
// The scenario is a security review over a service-dependency graph:
// `calls` edges between services, and the review asks per-service
// questions — exactly the single-source shape a query service handles.
//
// Run with:
//
//	go run ./examples/frontier
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

	// Two service clusters; only "edge" bridges them. Transitive calls
	// from most services touch a small frontier — the case where the
	// source-restricted closure wins.
	services := []string{"edge", "auth", "tokens", "db1", "billing", "ledger", "db2", "mail"}
	id := map[string]int{}
	for i, s := range services {
		id[s] = i
	}
	g := cfpq.NewGraph(len(services))
	calls := func(from, to string) { g.AddEdge(id[from], "calls", id[to]) }
	calls("edge", "auth")
	calls("edge", "billing")
	calls("auth", "tokens")
	calls("tokens", "db1")
	calls("billing", "ledger")
	calls("ledger", "db2")
	calls("billing", "mail")

	// Reach → calls Reach | calls: transitive dependencies.
	gram := cfpq.MustParseGrammar("Reach -> calls Reach | calls")

	// 1. A single-source question as a declarative Request: the planner
	// picks the source-frontier strategy, so only the rows reachable from
	// billing are ever materialised; Explain records the choice.
	res, err := eng.Do(ctx, cfpq.Request{
		Graph: g, Grammar: gram, Nonterminal: "Reach", Sources: []int{id["billing"]},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plan: %s\n", res.Explain.Strategy)
	fmt.Fprintf(w, "billing transitively calls (frontier %d of %d nodes):\n",
		res.Explain.Frontier, g.Nodes())
	for p := range res.Pairs() {
		fmt.Fprintf(w, "  %s\n", services[p.J])
	}

	// 1b. The dual question — "who can take down db2?" — plans the
	// target-frontier strategy: the same frontier evaluation over the
	// reversed graph and grammar.
	rev, err := eng.Do(ctx, cfpq.Request{
		Graph: g, Grammar: gram, Nonterminal: "Reach", Targets: []int{id["db2"]},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nplan: %s\n", rev.Explain.Strategy)
	fmt.Fprintf(w, "services that transitively call db2:\n")
	for p := range rev.Pairs() {
		fmt.Fprintf(w, "  %s\n", services[p.I])
	}

	// 2. A review batch: one Prepared handle, one closure build, every
	// per-service question answered from the same index state. (The
	// handle never writes the graph.)
	prep, err := eng.Prepare(ctx, g, gram)
	if err != nil {
		return err
	}
	queries := []cfpq.Request{
		{Nonterminal: "Reach", Output: cfpq.OutputCount},
		{Nonterminal: "Reach", Output: cfpq.OutputExists, Sources: []int{id["edge"]}, Targets: []int{id["db2"]}},
		{Nonterminal: "Reach", Output: cfpq.OutputExists, Sources: []int{id["auth"]}, Targets: []int{id["ledger"]}},
		{Nonterminal: "Reach", Sources: []int{id["auth"]}},
	}
	results := prep.QueryBatch(ctx, queries)
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	fmt.Fprintf(w, "\nreview batch (%d queries, one index build):\n", len(queries))
	fmt.Fprintf(w, "  total reachable pairs:     %d\n", results[0].Result.Count)
	fmt.Fprintf(w, "  edge can reach db2:        %v\n", results[1].Result.Exists)
	fmt.Fprintf(w, "  auth can reach ledger:     %v\n", results[2].Result.Exists)
	fmt.Fprintf(w, "  auth's reachable set:     ")
	for p := range results[3].Result.Pairs() {
		fmt.Fprintf(w, " %s", services[p.J])
	}
	fmt.Fprintln(w)

	// 3. The handle keeps answering restricted questions from its cached
	// index — and stays current under edge updates.
	if _, err := prep.AddEdges(ctx, cfpq.Edge{From: id["mail"], Label: "calls", To: id["auth"]}); err != nil {
		return err
	}
	billing, err := prep.Do(ctx, cfpq.Request{Nonterminal: "Reach", Sources: []int{id["billing"]}})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nafter mail -> auth is added, billing reaches:\n")
	for p := range billing.Pairs() {
		fmt.Fprintf(w, "  %s\n", services[p.J])
	}
	return nil
}

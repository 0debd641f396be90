// Command cfpq evaluates a context-free path query on an edge-labelled
// graph.
//
// The graph is an N-Triples file (expanded with inverse `_r` edges, as in
// the paper) and the query is a grammar file in the text format of
// internal/grammar, e.g.
//
//	S -> subClassOf_r S subClassOf | subClassOf_r subClassOf
//
// Usage:
//
//	cfpq -graph wine.nt -query samegen.g -start S                # relational
//	cfpq -graph wine.nt -query samegen.g -start S -semantics single-path
//	cfpq -graph wine.nt -query samegen.g -start S -backend dense
//	cfpq -graph wine.nt -query samegen.g -start S -count         # count only
//	cfpq -graph wine.nt -query samegen.g -start S -sources n1,n2 # pairs leaving n1/n2
//	cfpq -graph wine.nt -query samegen.g -start S -targets n3    # pairs entering n3
//	cfpq -graph wine.nt -query samegen.g -start S -explain       # print the chosen plan
//	cfpq -graph wine.nt -query samegen.g -start S -trace         # print the per-pass table
//	cfpq -graph wine.nt -query samegen.g -save-index samegen.idx # persist the closure
//	cfpq -graph wine.nt -query samegen.g -load-index samegen.idx # answer without re-running it
//
// Every query flows through the library's planner (cfpq.Request →
// Engine.Do/Prepared.Do), which picks full, source-frontier,
// target-frontier or cached-read evaluation; -explain shows the choice and
// -trace prints one leading comment line per closure pass (phase, products,
// nnz delta, frontier saturation, matrix bytes, wall time).
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"

	"cfpq/internal/cli"
)

func main() {
	cfg, err := cli.ParseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	// Ctrl-C cancels the closure between fixpoint passes instead of
	// killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := cli.Run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cfpq: %v\n", err)
		os.Exit(1)
	}
}

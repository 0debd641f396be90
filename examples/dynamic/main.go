// Dynamic demonstrates the library extensions around the paper's core
// algorithm through the Engine/Prepared API: regular path queries (RPQ)
// answered through the same matrix machinery, a Prepared handle that keeps
// an evaluated query hot and absorbs edge updates incrementally (dynamic
// CFPQ), streaming iteration over a relation, and persisting the evaluated
// index.
//
// The scenario is a package-dependency graph: `imports` edges between
// modules, with a vulnerability introduced mid-session.
//
// Run with:
//
//	go run ./examples/dynamic
package main

import (
	"bytes"
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

	mods := []string{"app", "api", "auth", "db", "log", "vuln"}
	id := map[string]int{}
	for i, m := range mods {
		id[m] = i
	}
	g := cfpq.NewGraph(len(mods))
	imports := func(from, to string) cfpq.Edge {
		e := cfpq.Edge{From: id[from], Label: "imports", To: id[to]}
		g.AddEdge(e.From, e.Label, e.To)
		return e
	}
	imports("app", "api")
	imports("api", "auth")
	imports("api", "db")
	imports("auth", "log")
	imports("db", "log")

	// 1. RPQ: transitive dependencies are `imports+`.
	deps, err := eng.Do(ctx, cfpq.Request{Graph: g, Expr: "imports+"})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Transitive dependencies (RPQ `imports+`):")
	for p := range deps.Pairs() {
		fmt.Fprintf(w, "  %s -> %s\n", mods[p.I], mods[p.J])
	}

	// 2. The same relation as a CFPQ, prepared once: the closure is
	// evaluated and cached in a handle that answers any number of
	// queries and stays current under edge updates. (Prepare takes
	// ownership of the graph, so hand it a clone.)
	gram := cfpq.MustParseGrammar("Dep -> imports Dep | imports")
	prep, err := eng.Prepare(ctx, g.Clone(), gram)
	if err != nil {
		return err
	}
	count, err := prep.Do(ctx, cfpq.Request{Nonterminal: "Dep", Output: cfpq.OutputCount})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nPrepared closure: %d pairs in %d passes\n",
		count.Count, prep.Stats().Build.Iterations)

	// 3. Dynamic update: db starts importing vuln; only the consequences
	// of the new edge are propagated — no full re-evaluation. The edge
	// goes through the handle, which keeps graph and index in sync.
	fmt.Fprintln(w, "\nAdding edge db -imports-> vuln ...")
	info, err := prep.AddEdges(ctx, cfpq.Edge{From: id["db"], Label: "imports", To: id["vuln"]})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Incremental update: %d passes, %d matrix products\n",
		info.Stats.Iterations, info.Stats.Products)
	dep, err := prep.Do(ctx, cfpq.Request{Nonterminal: "Dep"})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Modules now depending on vuln (streamed):")
	for p := range dep.Pairs() {
		if mods[p.J] == "vuln" {
			fmt.Fprintf(w, "  %s\n", mods[p.I])
		}
	}

	// 4. Persist an evaluated index and reload it (e.g. in a later
	// session) without re-running the closure.
	g.AddEdge(id["db"], "imports", id["vuln"])
	cnf, err := cfpq.ToCNF(gram)
	if err != nil {
		return err
	}
	ix, _, err := eng.Evaluate(ctx, g, cnf)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := cfpq.SaveIndex(&buf, ix); err != nil {
		return err
	}
	size := buf.Len()
	reloaded, err := eng.LoadIndex(&buf, cnf)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nSaved %d bytes; reloaded index answers Has(app→vuln) = %v\n",
		size, reloaded.Has("Dep", id["app"], id["vuln"]))
	return nil
}

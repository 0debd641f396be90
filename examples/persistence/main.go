// Persistence demonstrates the durable store behind `cfpqd -data-dir`:
// a session registers a graph, journals live edge additions write-ahead
// into a WAL, and persists an evaluated closure index; a "restart" then
// recovers everything from disk and answers the same queries without
// re-running any closure — including the consequences of edges that were
// only ever in the WAL.
//
// The scenario continues examples/dynamic's package-dependency graph:
// `imports` edges between modules, a vulnerability discovered mid-session,
// and a service restart in the middle of the incident.
//
// Run with:
//
//	go run ./examples/persistence
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"cfpq"
	"cfpq/internal/store"
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
	dir, err := os.MkdirTemp("", "cfpq-persistence-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	mods := []string{"app", "api", "auth", "db", "log", "vuln"}
	id := map[string]int{}
	for i, m := range mods {
		id[m] = i
	}

	// ---- Session 1: build, persist, journal, "crash" -----------------
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	g := cfpq.NewGraph(len(mods))
	for _, e := range [][2]string{
		{"app", "api"}, {"api", "auth"}, {"api", "db"}, {"auth", "log"}, {"db", "log"},
	} {
		g.AddEdge(id[e[0]], "imports", id[e[1]])
	}
	// The snapshot holds the graph and its node names.
	if err := st.CreateGraph("deps", g, mods); err != nil {
		return err
	}
	_, epoch, err := st.GraphPos("deps")
	if err != nil {
		return err
	}

	gram := cfpq.MustParseGrammar("Dep -> imports Dep | imports")
	cnf, err := cfpq.ToCNF(gram)
	if err != nil {
		return err
	}
	eng := cfpq.NewEngine(cfpq.Sparse)
	// The handle never writes g: its first update works on a copy.
	prep, err := eng.PrepareCNF(ctx, g, cnf)
	if err != nil {
		return err
	}
	count, err := prep.Do(ctx, cfpq.Request{Nonterminal: "Dep", Output: cfpq.OutputCount})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Session 1: closure over %d modules: %d Dep pairs in %d passes\n",
		len(mods), count.Count, prep.Stats().Build.Iterations)

	// Persist the evaluated index at the current WAL position (seq 0: no
	// edges journaled yet) of this graph's stream (its epoch: a replaced
	// graph refuses the save). WriteIndex streams it into the index file.
	ix := store.IndexData{Grammar: "dep", Backend: "sparse", Seq: 0, Epoch: epoch, Write: prep.WriteIndex}
	if err := st.SaveIndexFrom("deps", ix); err != nil {
		return err
	}
	for _, info := range st.Indexes("deps") {
		fmt.Fprintf(w, "Persisted index: %s@%s at seq %d\n", info.Grammar, info.Backend, info.Seq)
	}

	// Journal each mutation into the store's WAL write-ahead, as cfpqd
	// does: the fsync happens before the in-memory patch.
	fmt.Fprintln(w, "\nIncident! db starts importing vuln (journaled to the WAL):")
	incident := []cfpq.Edge{{From: id["db"], Label: "imports", To: id["vuln"]}}
	if err := st.Log("deps").AppendEdges(incident); err != nil {
		return err
	}
	if _, err := prep.AddEdges(ctx, incident...); err != nil {
		return err
	}
	dep, err := prep.Do(ctx, cfpq.Request{Nonterminal: "Dep"})
	if err != nil {
		return err
	}
	for p := range dep.Pairs() {
		if mods[p.J] == "vuln" {
			fmt.Fprintf(w, "  %s now depends on vuln\n", mods[p.I])
		}
	}
	// No snapshot, no graceful anything: the process "dies" here.
	if err := st.Close(); err != nil {
		return err
	}

	// ---- Session 2: recover and warm-start ---------------------------
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st2.Close()
	// GraphState folds the graph from the files: the snapshot, then the WAL.
	g2, fold, seq, err := st2.GraphState("deps")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nSession 2: recovered %q: %d nodes, %d edges, %d WAL record(s) replayed\n",
		"deps", g2.Nodes(), g2.EdgeCount(), seq)

	infos := st2.Indexes("deps")
	saved, idxSeq, err := st2.LoadIndex(infos[0], cnf, nil)
	if err != nil {
		return err
	}
	// The saved index predates the journaled edge; patch the difference
	// with the incremental delta closure — not a full re-evaluation.
	tail := g2.Edges() // compacted away: repair from the full edge set
	if idxSeq >= fold.BaseSeq {
		tail = fold.Tail[idxSeq-fold.BaseSeq:]
	}
	stats, err := eng.Update(ctx, saved, tail...)
	if err != nil {
		return err
	}
	warm, err := eng.PrepareFromIndex(g2, cnf, saved)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Patched %d WAL edge(s) in %d passes; warm handle ran %d closure passes\n",
		len(tail), stats.Iterations, warm.Stats().Build.Iterations)
	has, err := warm.Do(ctx, cfpq.Request{
		Nonterminal: "Dep", Sources: []int{id["app"]}, Targets: []int{id["vuln"]}, Output: cfpq.OutputExists,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "After restart, Has(app -> vuln) = %v (name table intact: node %d = %q)\n",
		has.Exists, id["vuln"], fold.Names.Name(id["vuln"]))
	return nil
}

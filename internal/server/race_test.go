package server

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"cfpq/internal/core"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// TestConcurrentQueriesDuringUpdates races many readers (Has, Count,
// Relation, Counts — all answering under the per-index read lock) against
// writers streaming edge updates into the same cached indexes. Run under
// `go test -race`; afterwards every index must equal a from-scratch
// closure of the final graph, and the accumulated incremental work must be
// cheaper than one cold closure per update would have been.
func TestConcurrentQueriesDuringUpdates(t *testing.T) {
	const (
		k       = 16 // word a^k b^(k-1) plus spare trailing nodes
		writers = 2
		readers = 6
		batches = 8 // edge batches per writer
	)
	word := make([]string, 0, 2*k-1)
	for i := 0; i < k; i++ {
		word = append(word, "a")
	}
	for i := 0; i < k-1; i++ {
		word = append(word, "b")
	}
	g := graph.Word(word)
	// Room for every b-edge the writers will append: b^(k-1) grows toward
	// b^(k-1+writers*batches), pairing with the leading a's.
	g.EnsureNode(2*k - 1 + writers*batches)
	s := New()
	if err := s.RegisterGraph("word", g, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("anbn", anbnGrammar); err != nil {
		t.Fatal(err)
	}
	backends := []string{"sparse", "dense"}
	targets := make([]Target, len(backends))
	for i, be := range backends {
		targets[i] = Target{Graph: "word", Grammar: "anbn", Backend: be}
		if _, err := count(ctx, s, targets[i], "S"); err != nil { // warm the caches
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	start := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for b := 0; b < batches; b++ {
				// Writers interleave appending b-edges past the end of
				// the initial word (whose last node is 2k-1), each writer
				// taking every writers-th slot.
				at := 2*k - 1 + writers*b + w
				spec := EdgeSpec{From: fmt.Sprint(at), Label: "b", To: fmt.Sprint(at + 1)}
				if _, err := s.AddEdges(ctx, "word", []EdgeSpec{spec}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			tgt := targets[r%len(targets)]
			for i := 0; i < 40; i++ {
				switch i % 4 {
				case 0:
					if _, err := has(ctx, s, tgt, "S", "0", fmt.Sprint(2*k)); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := count(ctx, s, tgt, "S"); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := relation(ctx, s, tgt, "S"); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, ok := s.IndexStatsFor(tgt); !ok {
						errs <- fmt.Errorf("no stats for warmed index %+v", tgt)
						return
					}
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every cached index must now agree with a cold closure of the final
	// graph — the interleaved updates lost nothing.
	finalWord := make([]string, 0, 2*k)
	for i := 0; i < k; i++ {
		finalWord = append(finalWord, "a")
	}
	for i := 0; i < k-1+writers*batches; i++ {
		finalWord = append(finalWord, "b")
	}
	gFinal := graph.Word(finalWord)
	cnf := mustCNF(t, anbnGrammar)
	coldIx, coldStats, _ := core.NewEngine(core.WithBackend(matrix.Sparse())).RunContext(context.Background(), gFinal, cnf)
	wantCount := coldIx.Count("S")
	if wantCount <= k-1 {
		t.Fatalf("test is vacuous: updates added no pairs (count %d)", wantCount)
	}
	totalUpdates := 0
	for _, tgt := range targets {
		if n, err := count(ctx, s, tgt, "S"); err != nil || n != wantCount {
			t.Fatalf("backend %s: post-race Count = %d, %v; want %d", tgt.Backend, n, err, wantCount)
		}
		st, ok := s.IndexStatsFor(tgt)
		if !ok {
			t.Fatalf("backend %s: index stats missing", tgt.Backend)
		}
		if st.Updates == 0 {
			t.Fatalf("backend %s: no incremental updates recorded", tgt.Backend)
		}
		totalUpdates += st.Update.Products
		// The incremental stream must beat the alternative it replaces:
		// recomputing the closure from scratch on every edge update.
		if st.Update.Products >= coldStats.Products*st.Updates {
			t.Fatalf("backend %s: %d update products across %d updates; recomputing cold each time is %d — the incremental path must be cheaper",
				tgt.Backend, st.Update.Products, st.Updates, coldStats.Products*st.Updates)
		}
	}
	t.Logf("update products across backends %d; one cold closure = %d products", totalUpdates, coldStats.Products)
}

// TestRPQReadersPinTheGraphBesideAWriter races readers — RPQ requests,
// answered from the expression's cached slot, and graph listings, which
// count the registry graph itself — against a writer that extends a chain
// by one fresh node per batch while the grammar's and the expression's
// cached indexes on the graph are patched along. A reader pins the
// published version and reads it without a lock or a copy; what it
// answers must be the oracle's answer on some prefix of the batches (on a
// chain n0 → n1 → …, "a+" from n0 is n1 … nj after j batches), and never
// one it has already moved past. Run under `go test -race`.
func TestRPQReadersPinTheGraphBesideAWriter(t *testing.T) {
	const (
		batches = 48
		readers = 4
	)
	s := New()
	if _, err := s.LoadGraph("chain", "edgelist", strings.NewReader("n0 a n1\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("plus", "S -> a S | a"); err != nil {
		t.Fatal(err)
	}
	tgt := Target{Graph: "chain", Grammar: "plus"}
	if _, err := count(ctx, s, tgt, "S"); err != nil { // a handle to patch beside the readers
		t.Fatal(err)
	}
	prefix := []NamedPair{{From: "n0", To: "n1"}} // prefix[:j+1] is the oracle after j batches
	for j := 1; j <= batches; j++ {
		prefix = append(prefix, NamedPair{From: "n0", To: fmt.Sprintf("n%d", j+1)})
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := 0
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one more read, of the final version
				default:
				}
				if r%2 == 0 {
					ans, err := s.Do(ctx, QueryRequest{Graph: "chain", Expr: "a+", Sources: []string{"n0"}})
					if err != nil {
						t.Error(err)
						return
					}
					if len(ans.Pairs) < seen || len(ans.Pairs) > len(prefix) || !slices.Equal(ans.Pairs, prefix[:len(ans.Pairs)]) {
						t.Errorf("reader %d: %v is no prefix of the chain at or past %d pairs", r, ans.Pairs, seen)
						return
					}
					seen = len(ans.Pairs)
				} else {
					info := s.Graphs()[0]
					if info.Edges < seen || info.Nodes != info.Edges+1 || info.Version != info.Edges-1 {
						t.Errorf("reader %d: listing %+v is no version of the chain at or past %d edges", r, info, seen)
						return
					}
					seen = info.Edges
				}
			}
			if seen != batches+1 {
				t.Errorf("reader %d: the final read saw %d of %d edges", r, seen, batches+1)
			}
		}(r)
	}
	for j := 1; j <= batches; j++ {
		res, err := s.AddEdges(ctx, "chain", []EdgeSpec{{From: fmt.Sprintf("n%d", j), Label: "a", To: fmt.Sprintf("n%d", j+1)}})
		if err != nil || res.NewNodes != 1 || res.Patched != 1 {
			t.Fatalf("batch %d: %+v, %v; want one new node patched into the index", j, res, err)
		}
	}
	close(done)
	wg.Wait()
	if n, err := count(ctx, s, tgt, "S"); err != nil || n != (batches+1)*(batches+2)/2 {
		t.Fatalf("cached index after the race: %d pairs, %v; want %d", n, err, (batches+1)*(batches+2)/2)
	}
}

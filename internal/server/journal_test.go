package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cfpq"
	"cfpq/internal/graph"
)

// journalFixture is a persistent service with one graph, one grammar, a
// built index and an open subscription on it, plus what each of them read
// before a mutation whose journal write is made to fail.
type journalFixture struct {
	s   *Service
	dir string
	sub *cfpq.Subscription

	graphs  []GraphInfo
	grammar GrammarInfo
	pairs   []NamedPair
	version uint64
}

var journalTarget = Target{Graph: "social", Grammar: "reach"}

func newJournalFixture(t *testing.T) *journalFixture {
	t.Helper()
	f := &journalFixture{dir: t.TempDir()}
	f.s = persistentService(t, f.dir)
	if _, err := f.s.LoadGraph("social", "edgelist", strings.NewReader("alice knows bob\nbob knows carol\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.s.RegisterGrammar("reach", reachGrammar); err != nil {
		t.Fatal(err)
	}
	var err error
	if f.pairs, err = relation(ctx, f.s, journalTarget, "S"); err != nil {
		t.Fatal(err)
	}
	subCtx, cancel := context.WithCancel(ctx)
	t.Cleanup(cancel)
	if f.sub, _, err = f.s.subscribe(subCtx, SubscribeRequest{Graph: "social", Grammar: "reach", Nonterminal: "S"}, false, 0); err != nil {
		t.Fatal(err)
	}
	f.graphs = f.s.Graphs()
	if f.grammar, err = f.s.GrammarInfoFor("reach"); err != nil {
		t.Fatal(err)
	}
	st, ok := f.s.IndexStatsFor(journalTarget)
	if !ok {
		t.Fatal("index not built")
	}
	f.version = st.Version
	return f
}

// requireNoTrace asserts that a mutation whose journal write failed left
// every reader's view as it was before the call.
func (f *journalFixture) requireNoTrace(t *testing.T) {
	t.Helper()
	if got := f.s.Graphs(); !reflect.DeepEqual(got, f.graphs) {
		t.Errorf("Graphs() = %+v, want %+v", got, f.graphs)
	}
	if got, err := f.s.GrammarInfoFor("reach"); err != nil || !reflect.DeepEqual(got, f.grammar) {
		t.Errorf("GrammarInfoFor = %+v, %v; want %+v", got, err, f.grammar)
	}
	if got, err := relation(ctx, f.s, journalTarget, "S"); err != nil || !reflect.DeepEqual(got, f.pairs) {
		t.Errorf("relation = %v, %v; want %v", got, err, f.pairs)
	}
	if st, ok := f.s.IndexStatsFor(journalTarget); !ok || st.Version != f.version {
		t.Errorf("index stats = %+v, %v; want the built index at version %d", st.PreparedStats, ok, f.version)
	}
	select {
	case b, ok := <-f.sub.Updates():
		if ok {
			t.Errorf("subscription received %+v", b)
		} else {
			t.Error("subscription closed")
		}
	default:
	}
	if _, err := has(ctx, f.s, journalTarget, "S", "zed", "alice"); !errors.Is(err, ErrNotFound) {
		t.Errorf("token first named by the failed call: err = %v, want ErrNotFound", err)
	}
}

// swapForFile replaces the directory at path with a regular file, so every
// write beneath it fails with ENOTDIR, and returns the function that puts
// the directory back.
func swapForFile(t *testing.T, path string) (restore func()) {
	t.Helper()
	if err := os.Rename(path, path+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(path+".away", path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedJournalLeavesNoTrace fails the journal write of each registry
// entry point every local and replicated mutation funnels into — applyBatch,
// installGraph, registerGrammar — and asserts write-ahead order by its
// effect: a call whose journal write failed changed nothing a reader can
// see. Graphs, the grammar, a cached index's answers and version, an open
// subscription and the name table are all as they were.
func TestFailedJournalLeavesNoTrace(t *testing.T) {
	zed := []EdgeSpec{{From: "carol", Label: "knows", To: "zed"}}

	t.Run("applyBatch", func(t *testing.T) {
		f := newJournalFixture(t)
		f.s.store.Close()
		if _, err := f.s.AddEdges(ctx, "social", zed); err == nil || !strings.Contains(err.Error(), "WAL unavailable") {
			t.Fatalf("AddEdges on a closed store: err = %v, want WAL unavailable", err)
		}
		f.requireNoTrace(t)
	})

	t.Run("installGraph", func(t *testing.T) {
		f := newJournalFixture(t)
		restore := swapForFile(t, filepath.Join(f.dir, "graphs"))
		g := graph.New(2)
		g.AddEdge(0, "knows", 1)
		if err := f.s.RegisterGraph("social", g, map[string]int{"carol": 0, "zed": 1}); err == nil {
			t.Fatal("replacing the graph succeeded with graphs/ a regular file")
		}
		restore()
		f.requireNoTrace(t)

		// The failed replacement must not have cost the old graph its log:
		// it keeps taking writes, and they survive a restart.
		if _, err := f.s.AddEdges(ctx, "social", []EdgeSpec{{From: "carol", Label: "knows", To: "dave"}}); err != nil {
			t.Fatalf("write after the failed replacement: %v", err)
		}
		s2 := reopen(t, f.s, f.dir)
		if ok, err := has(ctx, s2, journalTarget, "S", "alice", "dave"); err != nil || !ok {
			t.Fatalf("after reopen, alice reaches dave = %v, %v; want true", ok, err)
		}
	})

	t.Run("registerGrammar", func(t *testing.T) {
		f := newJournalFixture(t)
		restore := swapForFile(t, filepath.Join(f.dir, "grammars"))
		defer restore()
		if err := f.s.RegisterGrammar("reach", "S -> knows knows | knows S"); err == nil {
			t.Fatal("replacing the grammar succeeded with grammars/ a regular file")
		}
		f.requireNoTrace(t)
	})
}

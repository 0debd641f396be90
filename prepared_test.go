package cfpq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
)

func mustPrepare(t *testing.T, eng *Engine, g *Graph, text string) *Prepared {
	t.Helper()
	p, err := eng.Prepare(context.Background(), g, MustParseGrammar(text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPreparedBasics(t *testing.T) {
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 4)
	p := mustPrepare(t, NewEngine(Sparse), g, "S -> a S b | a b")

	if !p.Has(context.Background(), "S", 1, 3) || !p.Has(context.Background(), "S", 0, 4) {
		t.Error("expected pairs missing")
	}
	if p.Has(context.Background(), "S", 0, 1) || p.Has(context.Background(), "S", -1, 0) || p.Has(context.Background(), "S", 0, 99) || p.Has(context.Background(), "Nope", 0, 1) {
		t.Error("unexpected pair answered true")
	}
	if n := p.Count(context.Background(), "S"); n != 2 {
		t.Errorf("Count = %d, want 2", n)
	}
	if c := p.Counts(); c["S"] != 2 {
		t.Errorf("Counts = %v", c)
	}
	want := []Pair{{I: 0, J: 4}, {I: 1, J: 3}}
	if rel := p.Relation(context.Background(), "S"); !reflect.DeepEqual(rel, want) {
		t.Errorf("Relation = %v, want %v", rel, want)
	}

	// Streaming agrees with the materialised relation, and early break
	// releases the lock (the follow-up Count would deadlock otherwise).
	var streamed []Pair
	for pr := range p.Pairs(context.Background(), "S") {
		streamed = append(streamed, pr)
	}
	if !reflect.DeepEqual(streamed, want) {
		t.Errorf("Pairs = %v, want %v", streamed, want)
	}
	for range p.Pairs(context.Background(), "S") {
		break
	}
	_ = p.Count(context.Background(), "S")

	var paths [][]Edge
	for path := range p.Paths(context.Background(), "S", 1, 3, AllPathsOptions{MaxPaths: 4}) {
		paths = append(paths, path)
	}
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Errorf("Paths = %v", paths)
	}

	st := p.Stats()
	if st.Nodes != 5 || st.Entries == 0 || st.Build.Iterations == 0 || st.Queries == 0 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestPreparedPatchAgreesWithColdRebuild streams edge batches — including
// node-growing ones — through AddEdges and checks after every batch that
// the patched index matches a from-scratch closure of an identically
// mutated graph.
func TestPreparedPatchAgreesWithColdRebuild(t *testing.T) {
	const text = "S -> a S b | a b"
	eng := NewEngine(Sparse)
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	shadow := g.Clone()
	p := mustPrepare(t, eng, g, text)
	cnf, _ := ToCNF(MustParseGrammar(text))

	batches := [][]Edge{
		{{From: 0, Label: "a", To: 0}},                                // cycle on existing nodes
		{{From: 2, Label: "b", To: 3}, {From: 3, Label: "b", To: 4}},  // grows the node set
		{{From: 0, Label: "a", To: 1}},                                // duplicate: no-op
		{{From: 4, Label: "a", To: 5}, {From: 5, Label: "b", To: 6}},  // grows again
		{{From: 1, Label: "b", To: 2}, {From: 6, Label: "a", To: 10}}, // mixed dup + growth
	}
	for bi, batch := range batches {
		info, err := p.AddEdges(context.Background(), batch...)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		for _, e := range batch {
			if !shadow.HasEdge(e.From, e.Label, e.To) {
				shadow.AddEdge(e.From, e.Label, e.To)
			}
		}
		if shadow.Nodes() > p.Nodes() {
			t.Fatalf("batch %d: handle has %d nodes, shadow %d (info %+v)", bi, p.Nodes(), shadow.Nodes(), info)
		}
		cold, _, err := eng.Evaluate(context.Background(), shadow, cnf)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Relation(context.Background(), "S"), cold.Relation("S"); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: patched relation %v != cold rebuild %v", bi, got, want)
		}
	}
	if st := p.Stats(); st.Updates != len(batches) {
		t.Errorf("Updates = %d, want %d", p.Stats().Updates, len(batches))
	}
}

// TestPreparedConcurrentQueriesRaceUpdates races readers over every query
// method against a writer streaming edges in; run under -race. Afterwards
// the handle must agree with a cold closure of the final graph.
func TestPreparedConcurrentQueriesRaceUpdates(t *testing.T) {
	const k = 12
	const extra = 8
	text := "S -> a S b | a b"
	g := NewGraph(0)
	for i := 0; i < k; i++ {
		g.AddEdge(i, "a", i+1)
	}
	for i := k; i < 2*k-1; i++ {
		g.AddEdge(i, "b", i+1)
	}
	eng := NewEngine(Sparse)
	p := mustPrepare(t, eng, g.Clone(), text)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	start := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < extra; i++ {
			at := 2*k - 1 + i
			if _, err := p.AddEdges(context.Background(), Edge{From: at, Label: "b", To: at + 1}); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				switch i % 4 {
				case 0:
					p.Has(context.Background(), "S", 0, 2*k)
				case 1:
					p.Count(context.Background(), "S")
				case 2:
					for range p.Pairs(context.Background(), "S") {
					}
				case 3:
					p.Counts()
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

	for i := 0; i < extra; i++ {
		at := 2*k - 1 + i
		g.AddEdge(at, "b", at+1)
	}
	cnf, _ := ToCNF(MustParseGrammar(text))
	cold, _, err := NewEngine(Sparse).Evaluate(context.Background(), g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Count(context.Background(), "S"), cold.Count("S"); got != want {
		t.Fatalf("post-race Count = %d, cold rebuild = %d", got, want)
	}
	if !reflect.DeepEqual(p.Relation(context.Background(), "S"), cold.Relation("S")) {
		t.Fatal("post-race relation disagrees with cold rebuild")
	}
}

// TestPreparedReadersBesideColumnIndexWrites races readers of the published
// versions against a writer whose forks write to the column index they
// share with those versions. The cold build of a deep chain a…ab…b leaves
// T_a with a column index (its passes meet a one-row Δ far more often than
// the index costs to build). Every update forks the index, sets a fresh
// a-edge at the front of the chain in T_a's fork, which lists it in the
// shared column index, and lengthens the b-run, whose propagation drives
// T_a × Δ through that index. Run under -race; afterwards the handle
// equals a cold closure of the final graph.
func TestPreparedReadersBesideColumnIndexWrites(t *testing.T) {
	const n, depth, updates = 3000, 200, 16
	text := "S -> a S b | a b"
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		label := "a"
		if i >= n-1-depth {
			label = "b"
		}
		g.AddEdge(i, label, i+1)
	}
	p := mustPrepare(t, NewEngine(Sparse), g.Clone(), text)

	var edges []Edge
	front, back := 0, n-1
	for i := 0; i < updates; i++ {
		next := n + 2*i
		edges = append(edges, Edge{From: next, Label: "a", To: front}, Edge{From: back, Label: "b", To: next + 1})
		front, back = next, next+1
	}
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < len(edges); i += 2 {
			if _, err := p.AddEdges(context.Background(), edges[i:i+2]...); err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch (i + r) % 5 {
				case 0:
					p.Has(context.Background(), "S", n-1-depth-1, n)
				case 1:
					p.Count(context.Background(), "S")
				case 2:
					for range p.Pairs(context.Background(), "S") {
					}
				case 3:
					p.Stats()
				case 4:
					if err := p.WriteIndex(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, ed := range edges {
		g.AddEdge(ed.From, ed.Label, ed.To)
	}
	cnf, _ := ToCNF(MustParseGrammar(text))
	cold, _, err := NewEngine(Sparse).Evaluate(context.Background(), g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Count(context.Background(), "S"), cold.Count("S"); got != want || got <= depth {
		t.Fatalf("after the race the handle counts %d S-pairs, a cold closure %d (the chain alone has %d)", got, want, depth)
	}
	if !reflect.DeepEqual(p.Relation(context.Background(), "S"), cold.Relation("S")) {
		t.Fatal("after the race the handle's relation differs from a cold closure")
	}
}

// TestPreparedCancelledPatchRepairs: a cancelled AddEdges publishes nothing
// and keeps its edges pending; the next successful AddEdges propagates them
// incrementally, after which the handle agrees with a cold closure.
func TestPreparedCancelledPatchRepairs(t *testing.T) {
	text := "S -> a S b | a b"
	g := NewGraph(0)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, "a", i+1)
	}
	for i := 6; i < 11; i++ {
		g.AddEdge(i, "b", i+1)
	}
	eng := NewEngine(Sparse)
	p := mustPrepare(t, eng, g.Clone(), text)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AddEdges(cancelled, Edge{From: 11, Label: "b", To: 12}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Repair with a successful (empty) update.
	if _, err := p.AddEdges(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(11, "b", 12)
	cnf, _ := ToCNF(MustParseGrammar(text))
	cold, _, err := eng.Evaluate(context.Background(), g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Relation(context.Background(), "S"), cold.Relation("S")) {
		t.Fatalf("repaired relation %v != cold rebuild %v", p.Relation(context.Background(), "S"), cold.Relation("S"))
	}
}

// fakeWAL records journaled batches and can be told to fail.
type fakeWAL struct {
	batches [][]Edge
	fail    error
}

func (f *fakeWAL) AppendEdges(edges []Edge) error {
	if f.fail != nil {
		return f.fail
	}
	cp := make([]Edge, len(edges))
	copy(cp, edges)
	f.batches = append(f.batches, cp)
	return nil
}

func TestPreparedAttachWALTeesFreshEdges(t *testing.T) {
	ctx := context.Background()
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	p := mustPrepare(t, NewEngine(Sparse), g, "S -> a S b | a b")
	wal := &fakeWAL{}
	p.AttachWAL(wal)

	// Duplicates of existing edges and within-batch repeats must not be
	// journaled: replaying the WAL over the original graph has to rebuild
	// exactly the final edge multiset.
	dup := Edge{From: 0, Label: "a", To: 1}
	fresh := Edge{From: 1, Label: "b", To: 2}
	if _, err := p.AddEdges(ctx, dup, fresh, fresh); err != nil {
		t.Fatal(err)
	}
	if len(wal.batches) != 1 || !reflect.DeepEqual(wal.batches[0], []Edge{fresh}) {
		t.Fatalf("journaled %v, want [[%v]]", wal.batches, fresh)
	}
	if !p.Has(context.Background(), "S", 0, 2) {
		t.Error("patch missing after journaled AddEdges")
	}

	// A journal failure is write-ahead: no in-memory effect.
	wal.fail = errors.New("disk gone")
	if _, err := p.AddEdges(ctx, Edge{From: 2, Label: "a", To: 3}); err == nil {
		t.Fatal("AddEdges succeeded with failing WAL")
	}
	if p.Nodes() != 3 {
		t.Errorf("failed journal mutated the graph: %d nodes, want 3", p.Nodes())
	}
	// An all-duplicates batch journals nothing even while failing.
	wal.fail = errors.New("still down")
	if _, err := p.AddEdges(ctx, dup); err != nil {
		t.Errorf("no-op batch hit the WAL: %v", err)
	}
}

func TestPrepareFromIndexWarmStart(t *testing.T) {
	ctx := context.Background()
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	gram := MustParseGrammar("S -> a S b | a b")
	cnf, err := ToCNF(gram)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Sparse)
	cold, err := eng.PrepareCNF(ctx, g.Clone(), cnf)
	if err != nil {
		t.Fatal(err)
	}
	ix, _, err := eng.Evaluate(ctx, g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.PrepareFromIndex(g, cnf, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Relation(context.Background(), "S"), cold.Relation(context.Background(), "S")) {
		t.Error("warm handle answers differ from cold")
	}
	if st := warm.Stats(); st.Build.Products != 0 || st.Build.Iterations != 0 {
		t.Errorf("warm start ran a closure: %+v", st.Build)
	}
	// The warm handle keeps absorbing updates: b(3,4) completes
	// a a b b from 0 to 4.
	if _, err := warm.AddEdges(ctx, Edge{From: 3, Label: "b", To: 4}); err != nil {
		t.Fatal(err)
	}
	if !warm.Has(context.Background(), "S", 0, 4) {
		t.Error("warm handle missed incremental consequence")
	}
	// CNF identity is enforced.
	otherCNF, err := ToCNF(gram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PrepareFromIndex(NewGraph(1), otherCNF, ix); err == nil {
		t.Error("foreign CNF accepted")
	}
}

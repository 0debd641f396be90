package cfpq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
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

// read answers req from p. An error is reported with t.Error — so read is
// safe off the test goroutine — and answered with an empty Result.
func read(t testing.TB, p *Prepared, req Request) *Result {
	t.Helper()
	res, err := p.Do(context.Background(), req)
	if err != nil {
		t.Errorf("Do(%+v): %v", req, err)
		return &Result{}
	}
	return res
}

// relationOf reads R_nt from p: an unrestricted OutputPairs request.
func relationOf(t testing.TB, p *Prepared, nt string) []Pair {
	t.Helper()
	return read(t, p, Request{Nonterminal: nt}).AllPairs()
}

// hasPair reads whether (i, j) ∈ R_nt from p: a one-pair OutputExists request.
func hasPair(t testing.TB, p *Prepared, nt string, i, j int) bool {
	t.Helper()
	return read(t, p, Request{Nonterminal: nt, Sources: []int{i}, Targets: []int{j}, Output: OutputExists}).Exists
}

// countOf reads |R_nt| from p: an unrestricted OutputCount request.
func countOf(t testing.TB, p *Prepared, nt string) int {
	t.Helper()
	return read(t, p, Request{Nonterminal: nt, Output: OutputCount}).Count
}

func TestPreparedBasics(t *testing.T) {
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 4)
	p := mustPrepare(t, NewEngine(Sparse), g, "S -> a S b | a b")

	if !hasPair(t, p, "S", 1, 3) || !hasPair(t, p, "S", 0, 4) {
		t.Error("expected pairs missing")
	}
	if hasPair(t, p, "S", 0, 1) || hasPair(t, p, "S", 0, 99) {
		t.Error("unexpected pair answered true")
	}
	if n := countOf(t, p, "S"); n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
	if c := p.Stats().Counts; c["S"] != 2 {
		t.Errorf("Stats().Counts = %v", c)
	}
	want := []Pair{{I: 0, J: 4}, {I: 1, J: 3}}
	if rel := relationOf(t, p, "S"); !reflect.DeepEqual(rel, want) {
		t.Errorf("relation = %v, want %v", rel, want)
	}

	// Streaming agrees with the materialised relation, and early break
	// holds nothing (the follow-up read would deadlock otherwise).
	res := read(t, p, Request{Nonterminal: "S"})
	var streamed []Pair
	for pr := range res.Pairs() {
		streamed = append(streamed, pr)
	}
	if !reflect.DeepEqual(streamed, want) {
		t.Errorf("Pairs = %v, want %v", streamed, want)
	}
	for range res.Pairs() {
		break
	}
	_ = countOf(t, p, "S")

	var paths [][]Edge
	res = read(t, p, Request{Nonterminal: "S", Sources: []int{1}, Targets: []int{3}, Output: OutputPaths, Limit: 4})
	for path := range res.Paths() {
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
// TestPairsAllocatedOnce: AllPairs allocates its slice once, at its final
// size — the relation's nnz unrestricted, the limit for a page, the
// sources' rows for a source-restricted read — and a target-restricted
// read does not size it by the relation.
func TestPairsAllocatedOnce(t *testing.T) {
	g := NewGraph(0)
	for i := range 40 {
		g.AddEdge(i, "a", i+1)
	}
	p := mustPrepare(t, NewEngine(Sparse), g, "S -> a | a S")
	for _, c := range []struct {
		req         Request
		n, capacity int
	}{
		{Request{Nonterminal: "S"}, 820, 820},
		{Request{Nonterminal: "S", Limit: 100}, 100, 100},
		{Request{Nonterminal: "S", Limit: 1000}, 820, 820},
		{Request{Nonterminal: "S", Sources: []int{3, 0, 3, 99}}, 77, 77},
		{Request{Nonterminal: "S", Sources: []int{}}, 0, 0},
		{Request{Nonterminal: "S", Targets: []int{1}}, 1, 1},
	} {
		pairs := read(t, p, c.req).AllPairs()
		if len(pairs) != c.n || cap(pairs) != c.capacity {
			t.Errorf("%+v: %d pairs in a slice of capacity %d, want %d in %d", c.req, len(pairs), cap(pairs), c.n, c.capacity)
		}
	}
}

// TestResultWalksItsVersion: a pairs Result read before any number of
// AddEdges yields its own version's pairs — unrestricted, limited and
// source- or target-restricted, on both backends — when read from several
// goroutines at once beside the writer that publishes the later versions.
func TestResultWalksItsVersion(t *testing.T) {
	for _, be := range []Backend{Sparse, Dense} {
		g := NewGraph(0)
		for i := range 30 {
			g.AddEdge(i, "a", i+1)
		}
		p := mustPrepare(t, NewEngine(be), g, "S -> a | a S")
		var results []*Result
		var wants [][]Pair
		for _, req := range []Request{
			{Nonterminal: "S"},
			{Nonterminal: "S", Limit: 50},
			{Nonterminal: "S", Sources: []int{7, 3, 7, 99}},
			{Nonterminal: "S", Targets: []int{30, 2, 99, 2}, Sources: []int{0, 1, 5}},
		} {
			res := read(t, p, req)
			results, wants = append(results, res), append(wants, res.AllPairs())
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				if _, err := p.AddEdges(context.Background(), Edge{From: 0, Label: "a", To: 31 + i}, Edge{From: 31 + i, Label: "a", To: 0}); err != nil {
					t.Error(err)
				}
			}
		}()
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k, res := range results {
					if got := slices.Collect(res.Pairs()); !slices.Equal(got, wants[k]) || len(got) != res.Count {
						t.Errorf("%s: result %d walked %d pairs after later writes, want its %d", be.Name(), k, len(got), len(wants[k]))
					}
				}
			}()
		}
		wg.Wait()
		if want := []int{465, 50, 50, 5}; len(wants[0]) != want[0] || len(wants[1]) != want[1] || len(wants[2]) != want[2] || len(wants[3]) != want[3] {
			t.Errorf("%s: answers of %d, %d, %d and %d pairs, want %v", be.Name(), len(wants[0]), len(wants[1]), len(wants[2]), len(wants[3]), want)
		}
	}
}

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
		if got, want := relationOf(t, p, "S"), cold.Relation("S"); !reflect.DeepEqual(got, want) {
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
					hasPair(t, p, "S", 0, 2*k)
				case 1:
					countOf(t, p, "S")
				case 2:
					for range read(t, p, Request{Nonterminal: "S"}).Pairs() {
					}
				case 3:
					p.Stats()
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
	if got, want := countOf(t, p, "S"), cold.Count("S"); got != want {
		t.Fatalf("post-race count = %d, cold rebuild = %d", got, want)
	}
	if !reflect.DeepEqual(relationOf(t, p, "S"), cold.Relation("S")) {
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
					hasPair(t, p, "S", n-1-depth-1, n)
				case 1:
					countOf(t, p, "S")
				case 2:
					for range read(t, p, Request{Nonterminal: "S"}).Pairs() {
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
	if got, want := countOf(t, p, "S"), cold.Count("S"); got != want || got <= depth {
		t.Fatalf("after the race the handle counts %d S-pairs, a cold closure %d (the chain alone has %d)", got, want, depth)
	}
	if !reflect.DeepEqual(relationOf(t, p, "S"), cold.Relation("S")) {
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
	if got := relationOf(t, p, "S"); !reflect.DeepEqual(got, cold.Relation("S")) {
		t.Fatalf("repaired relation %v != cold rebuild %v", got, cold.Relation("S"))
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
	if !reflect.DeepEqual(relationOf(t, warm, "S"), relationOf(t, cold, "S")) {
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
	if !hasPair(t, warm, "S", 0, 4) {
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

// TestPreparedNeverWritesItsGraph: a handle never appends to the graph it
// was given, so its owner may extend a Fork of that graph beside it — as
// cfpqd's registry extends the version its handles were built on. The
// a-edges of g sit in a list with room for one more, the slot the owner's
// fork appends into; a handle that forked g too would append into the same
// slot, and one side would see the other's edge (under -race, the two
// writes race). The owner's fork and the handle then each see exactly
// their own edges, for a handle from Prepare and from PrepareFromIndex,
// through a first update and a second one.
func TestPreparedNeverWritesItsGraph(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(Sparse)
	gram := MustParseGrammar("S -> a S b | a b")
	cnf, err := ToCNF(gram)
	if err != nil {
		t.Fatal(err)
	}
	for _, via := range []string{"Prepare", "PrepareFromIndex"} {
		g := NewGraph(6)
		for i := range 3 { // len 3, cap 4
			g.AddEdge(i, "a", i+1)
		}
		g.AddEdge(3, "b", 4)
		g.AddEdge(4, "b", 5)
		base := g.Edges()

		var p *Prepared
		if via == "Prepare" {
			p, err = eng.PrepareCNF(ctx, g, cnf)
		} else {
			var ix *Index
			if ix, _, err = eng.newCore().RunContext(ctx, g, cnf); err == nil {
				p, err = eng.PrepareFromIndex(g, cnf, ix)
			}
		}
		if err != nil {
			t.Fatal(err)
		}

		owner := []Edge{{From: 5, Label: "a", To: 0}, {From: 5, Label: "b", To: 2}}
		handle := []Edge{{From: 1, Label: "a", To: 1}, {From: 2, Label: "b", To: 0}}
		var wg sync.WaitGroup
		var forks [2]*Graph
		wg.Add(1)
		go func() { // the registry: one fork per batch, along its own line
			defer wg.Done()
			line := g
			for k, ed := range owner {
				line = line.Fork()
				line.AddEdge(ed.From, ed.Label, ed.To)
				forks[k] = line
			}
		}()
		for _, ed := range handle {
			if _, err := p.AddEdges(ctx, ed); err != nil {
				t.Fatal(err)
			}
			countOf(t, p, "S")
		}
		wg.Wait()

		want := func(extra ...Edge) []Edge {
			out := NewGraph(6)
			for _, ed := range append(slices.Clone(base), extra...) {
				out.AddEdge(ed.From, ed.Label, ed.To)
			}
			return out.Edges()
		}
		if got := g.Edges(); !reflect.DeepEqual(got, base) {
			t.Errorf("%s: the given graph changed: %v", via, got)
		}
		if got := forks[1].Edges(); !reflect.DeepEqual(got, want(owner...)) {
			t.Errorf("%s: the owner's fork holds %v, want %v", via, got, want(owner...))
		}
		if got := p.pin().g.Edges(); !reflect.DeepEqual(got, want(handle...)) {
			t.Errorf("%s: the handle's graph holds %v, want %v", via, got, want(handle...))
		}
		fresh, err := eng.PrepareCNF(ctx, p.pin().g, cnf)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := countOf(t, p, "S"), countOf(t, fresh, "S"); got != want {
			t.Errorf("%s: the handle counts %d S-pairs, a cold build of its graph %d", via, got, want)
		}
	}
}

package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cfpq/internal/core"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// ctx is the background context the service methods take; none of these
// tests exercise cancellation (the root package's engine tests do).
var ctx = context.Background()

func mustCNF(t *testing.T, src string) *grammar.CNF {
	t.Helper()
	return grammar.MustCNF(grammar.MustParse(src))
}

const anbnGrammar = "S -> a S b | a b"

// anbnWordService returns a service holding the word graph a^k b^(k-1)
// with one spare trailing node, so adding the edge (2k-1, b, 2k) later
// completes the word a^k b^k without growing the node set. Nodes are
// addressed by decimal id (no name table).
func anbnWordService(t *testing.T, k int) *Service {
	t.Helper()
	word := make([]string, 0, 2*k-1)
	for i := 0; i < k; i++ {
		word = append(word, "a")
	}
	for i := 0; i < k-1; i++ {
		word = append(word, "b")
	}
	g := graph.Word(word)
	g.EnsureNode(2 * k)
	s := New()
	if err := s.RegisterGraph("word", g, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("anbn", anbnGrammar); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQueryOperations(t *testing.T) {
	s := New()
	edges := `
alice	knows	bob
bob	knows	carol
carol	likes	dora
`
	if _, err := s.LoadGraph("social", "edgelist", strings.NewReader(edges)); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", "S -> knows | knows S"); err != nil {
		t.Fatal(err)
	}
	tgt := Target{Graph: "social", Grammar: "reach"}

	ok, err := has(ctx, s, tgt, "S", "alice", "carol")
	if err != nil || !ok {
		t.Fatalf("Has(alice,carol) = %v, %v; want true", ok, err)
	}
	ok, err = has(ctx, s, tgt, "S", "carol", "alice")
	if err != nil || ok {
		t.Fatalf("Has(carol,alice) = %v, %v; want false", ok, err)
	}
	n, err := count(ctx, s, tgt, "S")
	if err != nil || n != 3 {
		t.Fatalf("Count = %d, %v; want 3 (alice→bob, alice→carol, bob→carol)", n, err)
	}
	pairs, err := relation(ctx, s, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	want := []NamedPair{{"alice", "bob"}, {"alice", "carol"}, {"bob", "carol"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("Relation = %v, want %v", pairs, want)
	}
	if st, ok := s.IndexStatsFor(tgt); !ok || st.Counts["S"] != 3 {
		t.Fatalf("IndexStatsFor = %+v, %v; want counts S:3", st, ok)
	}
}

func TestQueryAllBackendsAgree(t *testing.T) {
	s := anbnWordService(t, 6)
	var counts []int
	for _, be := range matrix.Backends() {
		n, err := count(ctx, s, Target{Graph: "word", Grammar: "anbn", Backend: be.Name()}, "S")
		if err != nil {
			t.Fatalf("backend %s: %v", be.Name(), err)
		}
		counts = append(counts, n)
	}
	for i, n := range counts {
		if n != counts[0] {
			t.Fatalf("backend %s count %d != %s count %d",
				matrix.Backends()[i].Name(), n, matrix.Backends()[0].Name(), counts[0])
		}
	}
	if len(s.Stats()) != len(matrix.Backends()) {
		t.Fatalf("expected %d cached indexes, got %d", len(matrix.Backends()), len(s.Stats()))
	}
}

func TestQueryErrors(t *testing.T) {
	s := anbnWordService(t, 3)
	tgt := Target{Graph: "word", Grammar: "anbn"}
	if _, err := count(ctx, s, Target{Graph: "nope", Grammar: "anbn"}, "S"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown graph: want ErrNotFound, got %v", err)
	}
	if _, err := count(ctx, s, Target{Graph: "word", Grammar: "nope"}, "S"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown grammar: want ErrNotFound, got %v", err)
	}
	if _, err := has(ctx, s, tgt, "S", "zzz", "0"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown node: want ErrNotFound, got %v", err)
	}
	if _, err := count(ctx, s, tgt, "Nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown non-terminal: want ErrNotFound, got %v", err)
	}
	if err := s.RegisterGraph("bad", graph.New(3), map[string]int{"x": 5}); err == nil {
		t.Error("out-of-range name table: expected error")
	}
	if _, err := count(ctx, s, Target{Graph: "word", Grammar: "anbn", Backend: "gpu"}, "S"); err == nil {
		t.Error("unknown backend: expected error")
	}
	if _, err := s.AddEdges(ctx, "word", []EdgeSpec{{From: "0", Label: "", To: "1"}}); err == nil {
		t.Error("empty label: expected error")
	}
	if _, err := s.AddEdges(ctx, "word", []EdgeSpec{{From: "999", Label: "a", To: "0"}}); err == nil {
		t.Error("out-of-range numeric node: expected error")
	}
	// A rejected batch must be atomic: the valid leading edge is NOT
	// applied, so the graph and its cached indexes stay consistent.
	before, _ := count(ctx, s, tgt, "S")
	if _, err := s.AddEdges(ctx, "word", []EdgeSpec{
		{From: "0", Label: "a", To: "1"},
		{From: "999", Label: "a", To: "0"},
	}); err == nil {
		t.Error("bad batch: expected error")
	}
	for _, gi := range s.Graphs() {
		if gi.Version != 0 {
			t.Errorf("rejected batch mutated graph %q (version %d)", gi.Name, gi.Version)
		}
	}
	if after, _ := count(ctx, s, tgt, "S"); after != before {
		t.Errorf("rejected batch changed query results: %d -> %d", before, after)
	}
	if err := s.RegisterGrammar("bad", "not a grammar"); err == nil {
		t.Error("malformed grammar: expected error")
	}
	if _, err := s.LoadGraph("bad", "xml", strings.NewReader("")); err == nil {
		t.Error("unknown format: expected error")
	}
}

// TestIncrementalUpdateCheaperThanColdClosure is the headline serving-path
// property: adding an edge to a graph with a cached index patches the
// index via the incremental delta closure, reaches exactly the state a
// from-scratch closure would, and does so with strictly fewer matrix
// products (asserted via core.Stats.Products).
func TestIncrementalUpdateCheaperThanColdClosure(t *testing.T) {
	const k = 32
	s := anbnWordService(t, k)
	tgt := Target{Graph: "word", Grammar: "anbn", Backend: "sparse"}

	last, spare := fmt.Sprint(2*k-1), fmt.Sprint(2*k)
	n, err := count(ctx, s, tgt, "S") // builds and caches the index
	if err != nil || n != k-1 {
		t.Fatalf("pre-update Count = %d, %v; want %d", n, err, k-1)
	}
	if ok, _ := has(ctx, s, tgt, "S", "0", spare); ok {
		t.Fatalf("pair (0,%s) must not exist before the update", spare)
	}

	res, err := s.AddEdges(ctx, "word", []EdgeSpec{{From: last, Label: "b", To: spare}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 1 || res.Patched != 1 || res.Invalidated != 0 || res.NewNodes != 0 {
		t.Fatalf("unexpected update result %+v", res)
	}
	if res.UpdateStats.Products == 0 {
		t.Fatal("the update must perform real closure work (new pairs appear)")
	}

	// The patched index answers the new query without any rebuild.
	if ok, err := has(ctx, s, tgt, "S", "0", spare); err != nil || !ok {
		t.Fatalf("post-update Has(0,%s) = %v, %v; want true", spare, ok, err)
	}
	if n, _ := count(ctx, s, tgt, "S"); n != k {
		t.Fatalf("post-update Count = %d, want %d", n, k)
	}

	// Cold reference: a from-scratch closure over the same final graph.
	word := make([]string, 0, 2*k)
	for i := 0; i < k; i++ {
		word = append(word, "a")
	}
	for i := 0; i < k; i++ {
		word = append(word, "b")
	}
	g := graph.Word(word)
	g.EnsureNode(2 * k)
	cnf := mustCNF(t, anbnGrammar)
	coldIx, coldStats, _ := core.NewEngine(core.WithBackend(matrix.Sparse())).RunContext(context.Background(), g, cnf)

	st, ok := s.IndexStatsFor(tgt)
	if !ok {
		t.Fatal("index stats missing")
	}
	if st.Updates != 1 || st.Update.Products != res.UpdateStats.Products {
		t.Fatalf("index stats %+v disagree with update result %+v", st, res)
	}
	if st.Update.Products >= coldStats.Products {
		t.Fatalf("incremental update took %d products, cold closure %d — update must be cheaper",
			st.Update.Products, coldStats.Products)
	}
	if got := coldIx.Count("S"); got != k {
		t.Fatalf("cold closure Count = %d, want %d", got, k)
	}
}

// TestUpdateWithNewNodesGrowsInPlace: an edge that interns a fresh node is
// an ordinary patched update — the incremental closure grows the index to
// the larger dimension; the cached handle stays and nothing is rebuilt.
func TestUpdateWithNewNodesGrowsInPlace(t *testing.T) {
	s := New()
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("x a y\ny b z\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("anbn", anbnGrammar); err != nil {
		t.Fatal(err)
	}
	tgt := Target{Graph: "g", Grammar: "anbn"}
	if n, err := count(ctx, s, tgt, "S"); err != nil || n != 1 {
		t.Fatalf("Count = %d, %v; want 1 (x→z)", n, err)
	}
	res, err := s.AddEdges(ctx, "g", []EdgeSpec{
		{From: "w", Label: "a", To: "x"}, // w is new: grows the graph
		{From: "z", Label: "b", To: "v"}, // v is new too
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewNodes != 2 || res.Patched != 1 || res.Invalidated != 0 {
		t.Fatalf("unexpected update result %+v", res)
	}
	// The patch covers the new nodes: w a x a y b z b v adds (w,v) beside (x,z).
	if n, err := count(ctx, s, tgt, "S"); err != nil || n != 2 {
		t.Fatalf("post-growth Count = %d, %v; want 2", n, err)
	}
	if ok, err := has(ctx, s, tgt, "S", "w", "v"); err != nil || !ok {
		t.Fatalf("Has(w,v) = %v, %v; want true", ok, err)
	}
	if st, ok := s.IndexStatsFor(tgt); !ok || st.Nodes != 5 || st.Version != 1 {
		t.Fatalf("grown index stats = %+v, %v; want 5 nodes at version 1", st, ok)
	}
	if builds := s.obs.indexBuilds.Value(); builds != 1 {
		t.Fatalf("%d index builds; the growing update must not cost a second one", builds)
	}
}

func TestReplacingGrammarOrGraphDropsIndexes(t *testing.T) {
	s := anbnWordService(t, 4)
	tgt := Target{Graph: "word", Grammar: "anbn"}
	if _, err := count(ctx, s, tgt, "S"); err != nil {
		t.Fatal(err)
	}
	if len(s.Stats()) != 1 {
		t.Fatalf("expected 1 cached index, got %d", len(s.Stats()))
	}
	if err := s.RegisterGrammar("anbn", "S -> a S | a"); err != nil {
		t.Fatal(err)
	}
	if len(s.Stats()) != 0 {
		t.Fatal("replacing a grammar must drop its indexes")
	}
	if n, err := count(ctx, s, tgt, "S"); err != nil || n != 4+3+2+1 {
		t.Fatalf("Count under replaced grammar = %d, %v; want 10 (a-chain pairs)", n, err)
	}
	if err := s.RegisterGraph("word", graph.Word([]string{"a"}), nil); err != nil {
		t.Fatal(err)
	}
	if len(s.Stats()) != 0 {
		t.Fatal("replacing a graph must drop its indexes")
	}
	if n, err := count(ctx, s, tgt, "S"); err != nil || n != 1 {
		t.Fatalf("Count on replaced graph = %d, %v; want 1", n, err)
	}
}

func TestNTriplesLoadAndNames(t *testing.T) {
	s := New()
	nt := `<c1> <subClassOf> <c0> .
<c2> <subClassOf> <c1> .
`
	st, err := s.LoadGraph("onto", "ntriples", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 3 || st.Edges != 4 { // inverse `_r` edges are synthesised
		t.Fatalf("loaded %+v, want 3 nodes / 4 edges", st)
	}
	if err := s.RegisterGrammar("up", "S -> subClassOf | subClassOf S"); err != nil {
		t.Fatal(err)
	}
	pairs, err := relation(ctx, s, Target{Graph: "onto", Grammar: "up"}, "S")
	if err != nil {
		t.Fatal(err)
	}
	// Node ids follow first appearance: c1=0, c0=1, c2=2; pairs come back
	// in row-major id order.
	want := []NamedPair{{"c1", "c0"}, {"c2", "c1"}, {"c2", "c0"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("Relation = %v, want %v", pairs, want)
	}
}

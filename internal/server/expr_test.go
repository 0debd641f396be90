package server

// Tests of the expr slot's lifecycle: an RPQ expression is answered from a
// cached index of its canonical form — built once under its own counter,
// patched by writes, dropped with its graph, evicted LRU past a bound, and
// never written to or restored from the store.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exprSlots lists the canonical expressions of the service's expr slots.
func exprSlots(s *Service) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.indexes {
		if k.Expr != "" {
			out = append(out, k.Expr)
		}
	}
	slices.Sort(out)
	return out
}

func exprCount(t *testing.T, s *Service, expr string, sources ...string) int {
	t.Helper()
	ans, err := s.Do(ctx, QueryRequest{Graph: "g", Expr: expr, Sources: sources, Output: "count"})
	if err != nil {
		t.Fatalf("expr %q: %v", expr, err)
	}
	if ans.Explain.Strategy != "cached-read" {
		t.Fatalf("expr %q answered by %q, want cached-read", expr, ans.Explain.Strategy)
	}
	return *ans.Count
}

func TestExprSlotSharedPatchedAndCountedApart(t *testing.T) {
	s := New()
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("a knows b\nb knows c\n")); err != nil {
		t.Fatal(err)
	}
	// Two spellings of one expression read one slot: one build, counted
	// apart from the registry grammars' builds.
	if n := exprCount(t, s, "knows+"); n != 3 {
		t.Fatalf("knows+ counted %d pairs, want 3", n)
	}
	if n := exprCount(t, s, " ( knows )+", "a"); n != 2 {
		t.Fatalf("(knows)+ from a counted %d pairs, want 2", n)
	}
	if got := exprSlots(s); !slices.Equal(got, []string{"knows+"}) {
		t.Fatalf("expr slots %q, want the one canonical knows+", got)
	}
	if e, i := s.obs.exprIndexBuilds.Value(), s.obs.indexBuilds.Value(); e != 1 || i != 0 {
		t.Fatalf("%d expr builds and %d index builds, want 1 and 0", e, i)
	}
	// A write patches the slot (and is not reported as a grammar index
	// patch); the next read sees the new pairs without a second build.
	res, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: "c", Label: "knows", To: "d"}})
	if err != nil || res.Patched != 0 || res.NewNodes != 1 {
		t.Fatalf("AddEdges: %+v, %v; want one new node and no grammar index patched", res, err)
	}
	if n := exprCount(t, s, "knows+"); n != 6 {
		t.Fatalf("knows+ after the write counted %d pairs, want 6", n)
	}
	if e := s.obs.exprIndexBuilds.Value(); e != 1 {
		t.Fatalf("%d expr builds after the write, want the patched one", e)
	}
	// The slot shows in the index statistics under its expression.
	st := s.Stats()
	if len(st) != 1 || st[0].Expr != "knows+" || st[0].Grammar != "" || st[0].Updates != 1 {
		t.Fatalf("stats %+v, want the one patched knows+ slot", st)
	}
}

func TestExprSlotsEvictTheLeastRecentlyUsed(t *testing.T) {
	s := New()
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("a l0 b\n")); err != nil {
		t.Fatal(err)
	}
	expr := func(i int) string { return fmt.Sprintf("l%d+", i) }
	for i := 0; i < maxExprSlots; i++ {
		exprCount(t, s, expr(i))
	}
	exprCount(t, s, expr(0)) // l0+ is now the most recently used; l1+ the least
	exprCount(t, s, expr(maxExprSlots))
	got := exprSlots(s)
	if len(got) != maxExprSlots || slices.Contains(got, expr(1)) || !slices.Contains(got, expr(0)) {
		t.Fatalf("expr slots after one more than %d: %q; want l1+ evicted and l0+ kept", maxExprSlots, got)
	}
	if n := exprCount(t, s, expr(1)); n != 0 {
		t.Fatalf("l1+ counted %d pairs, want 0", n)
	}
	if e := s.obs.exprIndexBuilds.Value(); e != maxExprSlots+2 {
		t.Fatalf("%d expr builds, want %d (the evicted slot rebuilds on its next use)", e, maxExprSlots+2)
	}
}

func TestGraphReplacementDropsExprSlots(t *testing.T) {
	s := New()
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("a knows b\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadGraph("h", "edgelist", strings.NewReader("a knows b\n")); err != nil {
		t.Fatal(err)
	}
	exprCount(t, s, "knows+")
	if _, err := s.Do(ctx, QueryRequest{Graph: "h", Expr: "knows+"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("a knows b\nb knows c\n")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	var graphs []string
	for k := range s.indexes {
		graphs = append(graphs, k.Graph)
	}
	s.mu.Unlock()
	if !slices.Equal(graphs, []string{"h"}) {
		t.Fatalf("slots after replacing g are on %q, want only h's", graphs)
	}
	if n := exprCount(t, s, "knows+"); n != 3 {
		t.Fatalf("knows+ on the replacement counted %d pairs, want 3", n)
	}
}

func TestExprSlotsAreNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("a knows b\nb knows c\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("r", "S -> knows | knows S"); err != nil {
		t.Fatal(err)
	}
	tgt := Target{Graph: "g", Grammar: "r"}
	if _, err := count(ctx, s, tgt, "S"); err != nil {
		t.Fatal(err)
	}
	exprCount(t, s, "knows+")
	exprCount(t, s, "knows*", "a")
	if err := s.Snapshot(""); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(dir, "graphs", "g", "indexes"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if len(names) != 1 || !strings.HasPrefix(names[0], "r@") {
		t.Fatalf("index files %q, want the grammar's one", names)
	}

	s = reopen(t, s, dir)
	if w, b := s.obs.warmStarts.Value(), s.obs.indexBuilds.Value(); w != 1 || b != 0 {
		t.Fatalf("reopen: %d warm starts and %d builds, want the grammar slot's 1 and 0", w, b)
	}
	if got := exprSlots(s); len(got) != 0 {
		t.Fatalf("reopen restored expr slots %q", got)
	}
	if n := exprCount(t, s, "knows+"); n != 3 || s.obs.exprIndexBuilds.Value() != 1 {
		t.Fatalf("knows+ after reopen: %d pairs after %d expr builds, want 3 after 1", n, s.obs.exprIndexBuilds.Value())
	}
}

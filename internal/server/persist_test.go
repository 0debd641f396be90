package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cfpq"
	"cfpq/internal/dataset"
	"cfpq/internal/graph"
	"cfpq/internal/store"
)

// openTestStore opens a store in dir with fsync off (tests simulate
// crashes by dropping the Service and editing files, not by killing the
// process).
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoSync: true, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// persistentService builds a Service over a fresh store in dir.
func persistentService(t *testing.T, dir string) *Service {
	t.Helper()
	s := New()
	if err := s.AttachStore(ctx, openTestStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	return s
}

// reopen simulates a restart of old: its store's file handles are closed
// (a real kill would drop them too — Close flushes nothing and writes no
// snapshot) and a brand-new Service warm-starts from the files in dir.
func reopen(t *testing.T, old *Service, dir string) *Service {
	t.Helper()
	if old != nil && old.store != nil {
		old.store.Close()
	}
	return persistentService(t, dir)
}

// TestPersistRoundTripAllBackends is the subsystem's acceptance
// invariant: for every backend name a client may send — the retired
// row-parallel kernels' included, since a slot and its index file are
// keyed by the name sent — build → save → "kill" → reopen → replay yields
// an index whose relation equals a freshly computed one, and the reopened
// service answers without re-running any closure.
func TestPersistRoundTripAllBackends(t *testing.T) {
	// The ontology datasets the conformance suite pins, at a size that
	// keeps four backend names × restart affordable, plus the paper's query.
	ds, ok := dataset.ByName("skos")
	if !ok {
		t.Fatal("skos dataset missing")
	}
	g := ds.Build()
	queryGrammar := dataset.Query(1).String()
	// Pick a node v with no _r out-edges: its S row is empty (every
	// query-1 derivation starts with an _r step), so giving it a
	// subClassOf child u below guarantees the WAL-only edges add the new
	// pair S(v,v) — the patch path cannot pass vacuously.
	hasOutR := make([]bool, g.Nodes())
	for _, l := range []string{"subClassOf_r", "type_r"} {
		for _, e := range g.EdgesWithLabel(l) {
			hasOutR[e.From] = true
		}
	}
	v := -1
	for i := g.Nodes() - 1; i >= 0; i-- {
		if !hasOutR[i] {
			v = i
			break
		}
	}
	if v < 0 {
		t.Fatal("no childless node in skos")
	}
	u := (v + 1) % g.Nodes()
	for _, name := range []string{"dense", "dense-parallel", "sparse", "sparse-parallel"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := persistentService(t, dir)
			if err := s.RegisterGraph("onto", g.Clone(), nil); err != nil {
				t.Fatal(err)
			}
			if err := s.RegisterGrammar("q1", queryGrammar); err != nil {
				t.Fatal(err)
			}
			target := Target{Graph: "onto", Grammar: "q1", Backend: name}
			before, err := relation(ctx, s, target, "S")
			if err != nil {
				t.Fatal(err)
			}
			// Mutate after the index was built and persisted: these edges
			// live only in the WAL, not in the saved index file.
			added := []EdgeSpec{
				{From: fmt.Sprint(u), Label: "subClassOf", To: fmt.Sprint(v)},
				{From: fmt.Sprint(v), Label: "subClassOf_r", To: fmt.Sprint(u)},
			}
			if _, err := s.AddEdges(ctx, "onto", added); err != nil {
				t.Fatal(err)
			}
			want, err := relation(ctx, s, target, "S")
			if err != nil {
				t.Fatal(err)
			}

			// "Kill": no snapshot, no graceful anything — just reopen
			// from the files.
			s2 := reopen(t, s, dir)
			if n := s2.obs.warmStarts.Value(); n != 1 {
				t.Fatalf("WarmStarts = %d, want 1", n)
			}
			got, err := relation(ctx, s2, target, "S")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered relation differs: %d pairs vs %d", len(got), len(want))
			}
			// No closure ran: the warm handle's build stats are zero and
			// the build counter never ticked.
			if n := s2.obs.indexBuilds.Value(); n != 0 {
				t.Fatalf("reopened service ran %d closures", n)
			}
			ixStats, ok := s2.IndexStatsFor(target)
			if !ok {
				t.Fatal("warm index missing from stats")
			}
			if ixStats.Build.Products != 0 || ixStats.Build.Iterations != 0 {
				t.Fatalf("warm index reports build work: %+v", ixStats.Build)
			}
			// And the fresh-compute oracle agrees.
			fresh := New()
			g2 := g.Clone()
			g2.AddEdge(u, "subClassOf", v)
			g2.AddEdge(v, "subClassOf_r", u)
			if err := fresh.RegisterGraph("onto", g2, nil); err != nil {
				t.Fatal(err)
			}
			if err := fresh.RegisterGrammar("q1", queryGrammar); err != nil {
				t.Fatal(err)
			}
			oracle, err := relation(ctx, fresh, target, "S")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Fatal("recovered relation differs from cold recompute")
			}
			vName := fmt.Sprint(v)
			hasVV := func(pairs []NamedPair) bool {
				for _, p := range pairs {
					if p.From == vName && p.To == vName {
						return true
					}
				}
				return false
			}
			if hasVV(before) || !hasVV(got) {
				t.Fatalf("patch-path probe: S(%d,%d) before=%v after=%v, want false/true",
					v, v, hasVV(before), hasVV(got))
			}
		})
	}
}

// TestPersistSnapshotRestart exercises the snapshot path: after POSTing a
// snapshot, a restart replays nothing and still answers identically,
// including edges added after the snapshot.
func TestPersistSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	edges := "a\tx\tb\nb\ty\tc\n"
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader(edges)); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> x S y | x y"); err != nil {
		t.Fatal(err)
	}
	target := Target{Graph: "g", Grammar: "q"}
	if _, err := relation(ctx, s, target, "S"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: "a", Label: "x", To: "d"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(""); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutation: lives only in the WAL.
	if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: "d", Label: "y", To: "c"}}); err != nil {
		t.Fatal(err)
	}
	want, err := relation(ctx, s, target, "S")
	if err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, s, dir)
	got, err := relation(ctx, s2, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-snapshot restart: %v, want %v", got, want)
	}
	if n := s2.obs.indexBuilds.Value(); n != 0 {
		t.Fatalf("restart after snapshot ran %d closures", n)
	}
	// a-x->d-y->c must be in there (the WAL-only edge mattered).
	found := false
	for _, p := range got {
		if p.From == "a" && p.To == "c" {
			found = true
		}
	}
	if !found {
		t.Fatal("pair (a,c) via post-snapshot edge missing")
	}
}

// TestPersistTornWALRecovers cuts the WAL mid-record: the service must
// come back at the last good record and answer exactly from that state.
func TestPersistTornWALRecovers(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	if err := s.RegisterGraph("g", graph.Word([]string{"x", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> x S y | x y"); err != nil {
		t.Fatal(err)
	}
	// Three single-edge batches → three WAL frames.
	for i, e := range []EdgeSpec{
		{From: "0", Label: "x", To: "0"},
		{From: "2", Label: "y", To: "2"},
		{From: "1", Label: "x", To: "1"},
	} {
		if _, err := s.AddEdges(ctx, "g", []EdgeSpec{e}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	walPath := filepath.Join(dir, "graphs", "g", "wal")
	whole, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear inside the third frame.
	if err := os.WriteFile(walPath, whole[:len(whole)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, s, dir)
	g2, err := s2.graphEntry("g")
	if err != nil {
		t.Fatal(err)
	}
	if g2.g.EdgeCount() != 2+2 {
		t.Fatalf("recovered %d edges, want 4 (2 base + 2 surviving records)", g2.g.EdgeCount())
	}
	if g2.g.HasEdge(1, "x", 1) {
		t.Fatal("torn record resurrected")
	}
	// The recovered service matches a fresh compute over the surviving
	// graph.
	want := New()
	wg := graph.Word([]string{"x", "y"})
	wg.AddEdge(0, "x", 0)
	wg.AddEdge(2, "y", 2)
	if err := want.RegisterGraph("g", wg, nil); err != nil {
		t.Fatal(err)
	}
	if err := want.RegisterGrammar("q", "S -> x S y | x y"); err != nil {
		t.Fatal(err)
	}
	target := Target{Graph: "g", Grammar: "q"}
	got, err := relation(ctx, s2, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := relation(ctx, want, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("recovered relation %v, want %v", got, oracle)
	}
}

// TestPersistCompactionThenRestart forces compaction between the index
// save and the restart, exercising the repair path (index watermark below
// the snapshot base).
func TestPersistCompactionThenRestart(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	if err := s.RegisterGraph("g", graph.Word([]string{"x", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> x S y | x y"); err != nil {
		t.Fatal(err)
	}
	target := Target{Graph: "g", Grammar: "q"}
	if _, err := relation(ctx, s, target, "S"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: "2", Label: "x", To: "0"}}); err != nil {
		t.Fatal(err)
	}
	// Compact at the STORE level only: the graph snapshot advances to
	// seq 1 but the index file keeps watermark 0, and the WAL tail it
	// would need is gone.
	if err := s.store.Compact("g"); err != nil {
		t.Fatal(err)
	}
	want, err := relation(ctx, s, target, "S")
	if err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, s, dir)
	if n := s2.obs.warmStarts.Value(); n != 1 {
		t.Fatalf("WarmStarts = %d, want 1 (repair path)", n)
	}
	got, err := relation(ctx, s2, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("repair-path relation %v, want %v", got, want)
	}
	if n := s2.obs.indexBuilds.Value(); n != 0 {
		t.Fatalf("repair path ran %d full closures", n)
	}
}

// TestWarmStartedIndexHonoursMemoryBudget: an index restored from disk is
// patched under the service's memory budget exactly as a built one is. Both
// live under a budget equal to the build's peak, which an update joining the
// graph's two chains cannot fit: on either, the write answers invalidated:1
// and ticks budget_rejections, and the handle it abandoned still serves its
// published version.
func TestWarmStartedIndexHonoursMemoryBudget(t *testing.T) {
	chains := graph.New(10)
	for i := 0; i < 4; i++ {
		chains.AddEdge(i, "knows", i+1)
		chains.AddEdge(5+i, "knows", 5+i+1)
	}
	target := Target{Graph: "social", Grammar: "reach", Backend: "sparse"}
	register := func(s *Service) {
		t.Helper()
		if err := s.RegisterGraph("social", chains.Clone(), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterGrammar("reach", "S -> knows | knows S"); err != nil {
			t.Fatal(err)
		}
	}

	// The index is built, and saved, unbudgeted: its peak is the budget.
	dir := t.TempDir()
	s := persistentService(t, dir)
	register(s)
	want, err := relation(ctx, s, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	built, _ := s.IndexStatsFor(target)
	budget := built.Build.PeakBytes
	s.store.Close()

	warm := New()
	warm.SetMemoryBudget(budget)
	if err := warm.AttachStore(ctx, openTestStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	if n := warm.obs.warmStarts.Value(); n != 1 {
		t.Fatalf("WarmStarts = %d, want 1", n)
	}
	cold := New()
	cold.SetMemoryBudget(budget)
	register(cold)
	if _, err := relation(ctx, cold, target, "S"); err != nil {
		t.Fatalf("build under a budget equal to its peak: %v", err)
	}

	for name, svc := range map[string]*Service{"warm-started": warm, "built": cold} {
		svc.mu.Lock()
		p := svc.indexes[target.key()].p
		svc.mu.Unlock()
		version := p.Stats().Version
		res, err := svc.AddEdges(ctx, "social", []EdgeSpec{{From: "4", Label: "knows", To: "5"}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Patched != 0 || res.Invalidated != 1 {
			t.Errorf("%s index: over-budget patch answered patched:%d invalidated:%d, want 0 and 1",
				name, res.Patched, res.Invalidated)
		}
		if n := svc.obs.budgetRejections.Value(); n != 1 {
			t.Errorf("%s index: budget_rejections = %d, want 1", name, n)
		}
		if got := p.Stats().Version; got != version {
			t.Errorf("%s index: the abandoned handle moved from version %d to %d", name, version, got)
		}
		if got := p.Count(ctx, "S"); got != len(want) {
			t.Errorf("%s index: the abandoned handle counts %d S-pairs, published %d", name, got, len(want))
		}
	}
}

// TestPersistGrammarReplacementDropsIndexes: a re-registered grammar must
// not warm-start the old grammar's relations.
func TestPersistGrammarReplacementDropsIndexes(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	if err := s.RegisterGraph("g", graph.Word([]string{"x", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> x S y | x y"); err != nil {
		t.Fatal(err)
	}
	target := Target{Graph: "g", Grammar: "q"}
	if _, err := relation(ctx, s, target, "S"); err != nil {
		t.Fatal(err)
	}
	// Same non-terminal set, different language: the saved index would
	// type-check against the new CNF and silently serve wrong pairs if it
	// survived.
	if err := s.RegisterGrammar("q", "S -> y S x | y x"); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s, dir)
	if n := s2.obs.warmStarts.Value(); n != 0 {
		t.Fatalf("stale index warm-started after grammar replacement (%d)", n)
	}
	got, err := relation(ctx, s2, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("new grammar yields %v on x-then-y word, want empty", got)
	}
}

// TestAttachStoreRequiresEmptyService guards the warm-start contract.
func TestAttachStoreRequiresEmptyService(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.RegisterGrammar("q", "S -> a"); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachStore(ctx, openTestStore(t, dir)); err == nil {
		t.Fatal("AttachStore accepted a non-empty service")
	}
	s2 := persistentService(t, t.TempDir())
	if err := s2.AttachStore(ctx, openTestStore(t, t.TempDir())); err == nil {
		t.Fatal("second AttachStore accepted")
	}
}

// TestPersistManyGrammarsAndBackends: several (grammar, backend) indexes
// on one graph all warm-start.
func TestPersistManyGrammarsAndBackends(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	g := graph.Word([]string{"x", "x", "y", "y"})
	if err := s.RegisterGraph("g", g, nil); err != nil {
		t.Fatal(err)
	}
	grams := map[string]string{
		"balanced": "S -> x S y | x y",
		"stars":    "S -> x S | y S | x | y",
	}
	for name, text := range grams {
		if err := s.RegisterGrammar(name, text); err != nil {
			t.Fatal(err)
		}
	}
	var targets []Target
	for name := range grams {
		for _, be := range []string{"sparse", "dense"} {
			targets = append(targets, Target{Graph: "g", Grammar: name, Backend: be})
		}
	}
	want := map[string]int{}
	for _, tg := range targets {
		n, err := count(ctx, s, tg, "S")
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprintf("%v", tg)] = n
	}

	s2 := reopen(t, s, dir)
	if n := s2.obs.warmStarts.Value(); int(n) != len(targets) {
		t.Fatalf("WarmStarts = %d, want %d", n, len(targets))
	}
	for _, tg := range targets {
		n, err := count(ctx, s2, tg, "S")
		if err != nil {
			t.Fatal(err)
		}
		if n != want[fmt.Sprintf("%v", tg)] {
			t.Errorf("%v: count %d, want %d", tg, n, want[fmt.Sprintf("%v", tg)])
		}
	}
	if n := s2.obs.indexBuilds.Value(); n != 0 {
		t.Fatalf("warm start ran %d closures", n)
	}
}

// TestWarmStartFromLegacyBackendName: a data directory written while
// "sparse-parallel" named a kernel of its own — the index saved as
// q@sparse-parallel.idx, its CFPQIDX2 header naming that backend — still
// warm-starts without a closure, and a backend=sparse-parallel query
// answers from the restored slot what a backend=sparse cold build computes.
func TestWarmStartFromLegacyBackendName(t *testing.T) {
	const legacy, text = "sparse-parallel", "S -> x S y | x y"
	g := graph.Word([]string{"x", "x", "y", "y"})
	dir := t.TempDir()
	s := persistentService(t, dir)
	if err := s.RegisterGraph("g", g.Clone(), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", text); err != nil {
		t.Fatal(err)
	}
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, cfpq.MustParseGrammar(text))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	// Restamp the header (magic, uint16 name length, name) with the legacy name.
	const magic = "CFPQIDX2"
	raw := buf.Bytes()
	if got := string(raw[len(magic)+2 : len(magic)+2+len("sparse")]); got != "sparse" {
		t.Fatalf("index header names %q, want sparse", got)
	}
	stamped := binary.LittleEndian.AppendUint16([]byte(magic), uint16(len(legacy)))
	stamped = append(append(stamped, legacy...), raw[len(magic)+2+len("sparse"):]...)
	if err := s.store.SaveIndex("g", "q", legacy, 0, stamped); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, s, dir)
	if n := s2.obs.warmStarts.Value(); n != 1 {
		t.Fatalf("WarmStarts = %d, want 1", n)
	}
	got, err := relation(ctx, s2, Target{Graph: "g", Grammar: "q", Backend: legacy}, "S")
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.obs.indexBuilds.Value(); n != 0 {
		t.Fatalf("a %s query ran %d closures, want an answer from the restored slot", legacy, n)
	}
	want, err := relation(ctx, s2, Target{Graph: "g", Grammar: "q", Backend: "sparse"}, "S")
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.obs.indexBuilds.Value(); n != 1 {
		t.Fatalf("the sparse query ran %d closures, want its own cold build", n)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %s slot answers %v, a sparse cold build %v", legacy, got, want)
	}
}

// TestHTTPPersistenceEndpoints drives /healthz, /debug/vars, /v1/snapshot
// and /v1/store/stats over HTTP against a persistent service.
func TestHTTPPersistenceEndpoints(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	code, body := httpDo(t, srv, http.MethodGet, "/healthz", "")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}

	// Build some state so the metrics have something to show.
	if code, body = httpDo(t, srv, http.MethodPut, "/v1/graphs/g?format=edgelist", "a x b\nb y c\n"); code != http.StatusOK {
		t.Fatalf("PUT graph: %d %v", code, body)
	}
	if code, body = httpDo(t, srv, http.MethodPut, "/v1/grammars/q", "S -> x S y | x y"); code != http.StatusOK {
		t.Fatalf("PUT grammar: %d %v", code, body)
	}
	if code, body = postQuery(t, srv, "g", "q", "S", `"output":"count"`); code != http.StatusOK {
		t.Fatalf("query: %d %v", code, body)
	}
	if code, body = httpDo(t, srv, http.MethodPost, "/v1/graphs/g/edges",
		`{"edges":[{"from":"a","label":"x","to":"d"}]}`); code != http.StatusOK {
		t.Fatalf("POST edges: %d %v", code, body)
	}

	code, body = httpDo(t, srv, http.MethodGet, "/debug/vars", "")
	if code != http.StatusOK {
		t.Fatalf("debug/vars: %d", code)
	}
	if _, ok := body["memstats"]; !ok {
		t.Error("debug/vars misses the expvar globals (memstats)")
	}
	svcVars, ok := body["cfpqd"].(map[string]any)
	if !ok {
		t.Fatalf("debug/vars misses cfpqd: %v", body)
	}
	if svcVars["queries"].(float64) < 1 || svcVars["index_builds"].(float64) != 1 ||
		svcVars["updates"].(float64) != 1 || svcVars["edges_added"].(float64) != 1 {
		t.Errorf("cfpqd vars: %v", svcVars)
	}
	storeVars, ok := body["cfpqd_store"].(map[string]any)
	if !ok {
		t.Fatalf("debug/vars misses cfpqd_store: %v", body)
	}
	if storeVars["wal_bytes"].(float64) == 0 || storeVars["appends"].(float64) != 1 {
		t.Errorf("cfpqd_store vars: %v", storeVars)
	}

	code, body = httpDo(t, srv, http.MethodGet, "/v1/store/stats", "")
	if code != http.StatusOK || len(body["graphs"].([]any)) != 1 {
		t.Fatalf("store/stats: %d %v", code, body)
	}

	// Snapshot over HTTP folds the WAL.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/snapshot", "")
	if code != http.StatusOK || body["snapshotted"] != true {
		t.Fatalf("snapshot: %d %v", code, body)
	}
	if code, body = httpDo(t, srv, http.MethodGet, "/v1/store/stats", ""); code != http.StatusOK {
		t.Fatalf("store/stats: %d %v", code, body)
	}
	gs := body["graphs"].([]any)[0].(map[string]any)
	if gs["wal_bytes"].(float64) != 0 || gs["base_seq"].(float64) != 1 {
		t.Errorf("post-snapshot graph stats: %v", gs)
	}
	// Unknown graph → 404.
	if code, _ = httpDo(t, srv, http.MethodPost, "/v1/snapshot?graph=nope", ""); code != http.StatusNotFound {
		t.Errorf("snapshot of unknown graph: %d", code)
	}
}

// TestHTTPStoreEndpointsWithoutStore: the admin endpoints refuse politely
// in memory-only mode while /healthz and /debug/vars still serve.
func TestHTTPStoreEndpointsWithoutStore(t *testing.T) {
	srv := httptest.NewServer(Handler(New()))
	defer srv.Close()
	if code, _ := httpDo(t, srv, http.MethodPost, "/v1/snapshot", ""); code != http.StatusConflict {
		t.Errorf("snapshot without store: %d", code)
	}
	if code, _ := httpDo(t, srv, http.MethodGet, "/v1/store/stats", ""); code != http.StatusConflict {
		t.Errorf("store/stats without store: %d", code)
	}
	if code, body := httpDo(t, srv, http.MethodGet, "/healthz", ""); code != http.StatusOK {
		t.Errorf("healthz: %d %v", code, body)
	}
	if code, body := httpDo(t, srv, http.MethodGet, "/debug/vars", ""); code != http.StatusOK {
		t.Errorf("debug/vars: %d %v", code, body)
	} else if _, ok := body["cfpqd_store"]; ok {
		t.Error("memory-only debug/vars reports store vars")
	}
}

// TestPersistConcurrentUpdatesAndSnapshots races queries, journaled edge
// updates and snapshots against one persistent service, then restarts and
// checks the recovered state equals a cold recompute. Run under -race.
func TestPersistConcurrentUpdatesAndSnapshots(t *testing.T) {
	const writers, batches = 2, 6
	dir := t.TempDir()
	s := persistentService(t, dir)
	if err := s.RegisterGraph("g", graph.Word([]string{"x", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> x S y | x y"); err != nil {
		t.Fatal(err)
	}
	target := Target{Graph: "g", Grammar: "q"}
	if _, err := relation(ctx, s, target, "S"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				spec := EdgeSpec{
					From:  fmt.Sprintf("w%d-%d", w, b),
					Label: "x",
					To:    fmt.Sprintf("w%d-%d", w, b+1),
				}
				if _, err := s.AddEdges(ctx, "g", []EdgeSpec{spec}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := s.Snapshot("g"); err != nil {
				t.Error(err)
				return
			}
			if _, err := count(ctx, s, target, "S"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	want, err := relation(ctx, s, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := 0
	if ge, err := s.graphEntry("g"); err == nil {
		ge.mu.RLock()
		wantEdges = ge.g.EdgeCount()
		ge.mu.RUnlock()
	}

	s2 := reopen(t, s, dir)
	ge, err := s2.graphEntry("g")
	if err != nil {
		t.Fatal(err)
	}
	if ge.g.EdgeCount() != wantEdges {
		t.Fatalf("recovered %d edges, want %d", ge.g.EdgeCount(), wantEdges)
	}
	got, err := relation(ctx, s2, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered relation differs (%d vs %d pairs)", len(got), len(want))
	}
}

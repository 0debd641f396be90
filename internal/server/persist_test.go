package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
// row-parallel kernels' included, which key their kernel's slot and index
// file — build → save → "kill" → reopen → replay yields
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
	ge2, err := s2.graphEntry("g")
	if err != nil {
		t.Fatal(err)
	}
	g2 := ge2.cur.Load()
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

// TestBatchFoldsOversizedWAL: the batch that takes a graph's WAL past
// CompactBytes folds it before AddEdges — or, on a durable follower,
// ApplyReplicatedEdges — returns, so the WAL is never seen above the
// threshold; a restart of either node then answers what it answered before.
func TestBatchFoldsOversizedWAL(t *testing.T) {
	const compactBytes = 64
	open := func(old *Service, dir string) *Service {
		t.Helper()
		if old != nil {
			old.store.Close()
		}
		st, err := store.Open(dir, store.Options{NoSync: true, CompactBytes: compactBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		s := New()
		if err := s.AttachStore(ctx, st); err != nil {
			t.Fatal(err)
		}
		return s
	}
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, follower := open(nil, leaderDir), open(nil, followerDir)
	if err := leader.RegisterGraph("g", graph.Word([]string{"x", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	raw, seq, epoch, err := leader.ReplicaGraphSnapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	g, names, _, err := store.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.BootstrapGraph("g", g, names, seq, epoch); err != nil {
		t.Fatal(err)
	}
	target := Target{Graph: "g", Grammar: "q"}
	for _, s := range []*Service{leader, follower} {
		if err := s.RegisterGrammar("q", "S -> x S y | x y | S S"); err != nil {
			t.Fatal(err)
		}
		if _, err := relation(ctx, s, target, "S"); err != nil {
			t.Fatal(err)
		}
	}
	nodes := []struct {
		who string
		s   *Service
		dir string
	}{{"leader", leader, leaderDir}, {"follower", follower, followerDir}}
	const batches = 8
	for i := range batches {
		n := fmt.Sprintf("n%d", i)
		specs := []EdgeSpec{{From: n, Label: "x", To: "0"}, {From: "1", Label: "y", To: n}}
		if _, err := leader.AddEdges(ctx, "g", specs); err != nil {
			t.Fatal(err)
		}
		recs := make([]store.EdgeRecord, len(specs))
		for j, e := range specs {
			recs[j] = store.EdgeRecord(e)
		}
		head, _, _ := leader.GraphPos("g")
		if err := follower.ApplyReplicatedEdges(ctx, "g", store.RecordTokens, recs, head); err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			if st, _ := n.s.StoreStats(); st.WALBytes > compactBytes {
				t.Errorf("after batch %d: the %s's WAL holds %d bytes, above CompactBytes %d", i, n.who, st.WALBytes, compactBytes)
			}
		}
	}
	for _, n := range nodes {
		if st, _ := n.s.StoreStats(); st.Compactions == 0 {
			t.Fatalf("test is vacuous: %d batches past %d bytes folded nothing on the %s", batches, compactBytes, n.who)
		}
		want, err := relation(ctx, n.s, target, "S")
		if err != nil {
			t.Fatal(err)
		}
		s2 := open(n.s, n.dir)
		got, err := relation(ctx, s2, target, "S")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || len(want) == 0 {
			t.Errorf("%s after a restart: %v, want %v", n.who, got, want)
		}
		if builds := s2.obs.indexBuilds.Value(); builds != 0 {
			t.Errorf("%s's restart ran %d full closures", n.who, builds)
		}
	}
}

// TestFoldCheckpointsIndexes: the batch that folds an oversized WAL saves
// the graph's built indexes beside the fresh snapshot, at the fold's base,
// so a warm start after it patches only what was written since the fold —
// not every edge of the graph, as it must for an index file that kept its
// build-time watermark — and answers as before without a closure.
func TestFoldCheckpointsIndexes(t *testing.T) {
	const compactBytes = 64
	dir := t.TempDir()
	open := func(old *Service) (*Service, *store.Store) {
		t.Helper()
		if old != nil {
			old.store.Close()
		}
		st, err := store.Open(dir, store.Options{NoSync: true, CompactBytes: compactBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		s := New()
		if err := s.AttachStore(ctx, st); err != nil {
			t.Fatal(err)
		}
		return s, st
	}
	s, st := open(nil)
	if err := s.RegisterGraph("g", graph.Word([]string{"x", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> x S y | x y | S S"); err != nil {
		t.Fatal(err)
	}
	target := Target{Graph: "g", Grammar: "q"}
	if _, err := relation(ctx, s, target, "S"); err != nil {
		t.Fatal(err)
	}
	built := st.Indexes("g")
	for i := range 8 {
		n := fmt.Sprintf("n%d", i)
		if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: n, Label: "x", To: "0"}, {From: "1", Label: "y", To: n}}); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Compactions == 0 || stats.Graphs[0].BaseSeq == 0 {
		t.Fatalf("test is vacuous: 8 batches past %d bytes folded nothing: %+v", compactBytes, stats)
	}
	infos := st.Indexes("g")
	if len(infos) != 1 || len(built) != 1 {
		t.Fatalf("index files: %+v after the build, %+v after the folds; want one each", built, infos)
	}
	if base := stats.Graphs[0].BaseSeq; infos[0].Seq != base {
		t.Errorf("the index file covers seq %d (%d at its build); the last fold's base is %d", infos[0].Seq, built[0].Seq, base)
	}
	if saves := s.obs.indexSaves.With("fold").Value(); saves != uint64(stats.Compactions) {
		t.Errorf("cfpqd_index_saves_total{cause=\"fold\"} = %d after %d folds of one index", saves, stats.Compactions)
	}
	want, err := relation(ctx, s, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := open(s)
	got, err := relation(ctx, s2, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("after a restart: %v, want %v", got, want)
	}
	if builds := s2.obs.indexBuilds.Value(); builds != 0 {
		t.Errorf("the restart ran %d full closures", builds)
	}
}

// TestRetiredIndexFileIsRebuilt: an index file in a retired format,
// CFPQIDX3 or CFPQIDX2, is a cache miss, not an error: the warm start
// skips it, the first query rebuilds the slot once and rewrites the file as
// CFPQIDX4, answers are those of a fresh build, and the next restart
// warm-starts from the rewritten file without a closure. The reader refuses
// a retired file by its magic alone, so a CFPQIDX4 image restamped as
// CFPQIDX3 stands in for one.
func TestRetiredIndexFileIsRebuilt(t *testing.T) {
	const text = "S -> x S y | x y"
	g := graph.Word([]string{"x", "x", "y", "y"})
	cnf, err := cfpq.ToCNF(cfpq.MustParseGrammar(text))
	if err != nil {
		t.Fatal(err)
	}
	ix, _, err := cfpq.NewEngine(cfpq.Sparse).Evaluate(ctx, g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	var v4 bytes.Buffer
	if _, err := ix.WriteTo(&v4); err != nil {
		t.Fatal(err)
	}
	v3 := append([]byte("CFPQIDX3"), v4.Bytes()[len("CFPQIDX4"):]...)
	for magic, image := range map[string][]byte{"CFPQIDX3": v3, "CFPQIDX2": retiredIndex(ix, "sparse")} {
		t.Run(magic, func(t *testing.T) {
			dir := t.TempDir()
			s := persistentService(t, dir)
			if err := s.RegisterGraph("g", g.Clone(), nil); err != nil {
				t.Fatal(err)
			}
			if err := s.RegisterGrammar("q", text); err != nil {
				t.Fatal(err)
			}
			target := Target{Graph: "g", Grammar: "q", Backend: "sparse"}
			want, err := relation(ctx, s, target, "S")
			if err != nil || len(want) == 0 {
				t.Fatalf("%v, %v", want, err)
			}
			if err := s.store.SaveIndex("g", "q", "sparse", 0, image); err != nil {
				t.Fatal(err)
			}

			s2 := reopen(t, s, dir)
			if n := s2.obs.warmStarts.Value(); n != 0 {
				t.Fatalf("a %s file warm-started %d slots", magic, n)
			}
			got, err := relation(ctx, s2, target, "S")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("after the rebuild: %v, want %v", got, want)
			}
			if n := s2.obs.indexBuilds.Value(); n != 1 {
				t.Errorf("the first query ran %d closures, want 1", n)
			}
			infos := s2.store.Indexes("g")
			if len(infos) != 1 {
				t.Fatalf("index files %+v, want one", infos)
			}
			if _, _, err := s2.store.LoadIndex(infos[0], cnf, nil); err != nil {
				t.Fatalf("the rebuild left an index file that does not load: %v", err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, "graphs", "g", "indexes", "q@sparse.idx"))
			if err != nil || !bytes.Contains(raw, []byte("CFPQIDX4")) || bytes.Contains(raw, []byte(magic)) {
				t.Errorf("the rewritten file is not a CFPQIDX4 index (err %v)", err)
			}

			s3 := reopen(t, s2, dir)
			if n := s3.obs.warmStarts.Value(); n != 1 {
				t.Fatalf("the rewritten file warm-started %d slots, want 1", n)
			}
			if got, err := relation(ctx, s3, target, "S"); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("after the second restart: %v (%v), want %v", got, err, want)
			}
			if n := s3.obs.indexBuilds.Value(); n != 0 {
				t.Errorf("the second restart ran %d closures", n)
			}
		})
	}
}

// retiredIndex encodes ix in CFPQIDX2, the retired pair-list format:
// every pair of every relation as (uint32 row, uint32 col).
func retiredIndex(ix *cfpq.Index, backend string) []byte {
	le := binary.LittleEndian
	str := func(b []byte, s string) []byte { return append(le.AppendUint16(b, uint16(len(s))), s...) }
	names := ix.CNF().Names
	out := str([]byte("CFPQIDX2"), backend)
	out = le.AppendUint32(le.AppendUint32(out, uint32(ix.Nodes())), uint32(len(names)))
	for _, nt := range names {
		pairs := ix.Relation(nt)
		out = le.AppendUint32(str(out, nt), uint32(len(pairs)))
		for _, p := range pairs {
			out = le.AppendUint32(le.AppendUint32(out, uint32(p.I)), uint32(p.J))
		}
	}
	return out
}

// TestKeptUpFollowerReleasesFold: a follower that polls the WAL tail after
// every write always trails the batch that crosses -compact-bytes, so that
// batch's fold is skipped; the follower's next poll, from the head, must
// fold instead of leaving the WAL to grow for as long as the follower
// keeps up.
func TestKeptUpFollowerReleasesFold(t *testing.T) {
	const compactBytes = 64
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true, CompactBytes: compactBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New()
	if err := s.AttachStore(ctx, st); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGraph("g", graph.Word([]string{"x", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	from, epoch, _ := s.GraphPos("g")
	for i := range 20 {
		n := fmt.Sprintf("n%d", i)
		if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: n, Label: "x", To: "0"}}); err != nil {
			t.Fatal(err)
		}
		// One poll for the new batch, one from the head it reached.
		for range 2 {
			resp, err := s.ReplicaTail(ctx, "g", "f1", from, epoch, 0)
			if err != nil {
				t.Fatal(err)
			}
			from = resp.LeaderSeq
		}
	}
	stats, _ := s.StoreStats()
	if stats.Compactions == 0 || stats.WALBytes > compactBytes {
		t.Fatalf("after 20 batches with a follower at the head: %d compactions, WAL %d bytes (CompactBytes %d)",
			stats.Compactions, stats.WALBytes, compactBytes)
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
		if got := p.Stats().Counts["S"]; got != len(want) {
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
// q@sparse-parallel.idx, its CFPQIDX4 header naming that backend — still
// warm-starts without a closure, into the one slot of the sparse kernel:
// a backend=sparse-parallel query and a backend=sparse one both answer
// from it, and neither runs a closure.
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
	const magic = "CFPQIDX4"
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
	if n := s2.obs.indexBuilds.Value(); n != 0 {
		t.Fatalf("the sparse query ran %d closures, want an answer from the restored slot", n)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored slot answers %v to a %s query, %v to a sparse one", got, legacy, want)
	}
	if n := p.Stats().Counts["S"]; len(got) != n {
		t.Fatalf("restored slot answers %d pairs, a sparse cold build %d", len(got), n)
	}
}

// TestWarmStartPrefersTheCanonicalFile: when a file saved under a retired
// backend name and one saved under its kernel's canonical name could both
// restore one slot, the canonical one does, and the other is skipped. The
// retired-name file here is stale on purpose — another graph's relation
// under watermark 0, whose edge tail the snapshot has folded away — so a
// restart that restored it would answer pairs the graph does not derive.
func TestWarmStartPrefersTheCanonicalFile(t *testing.T) {
	const text = "S -> x S y | x y"
	dir := t.TempDir()
	s := persistentService(t, dir)
	if err := s.RegisterGraph("g", graph.Word([]string{"x", "x", "y", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", text); err != nil {
		t.Fatal(err)
	}
	target := Target{Graph: "g", Grammar: "q"}
	if _, err := relation(ctx, s, target, "S"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: "4", Label: "x", To: "0"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot("g"); err != nil {
		t.Fatal(err)
	}
	want, err := relation(ctx, s, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	other, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, graph.Word([]string{"x", "y", "x", "y"}), cfpq.MustParseGrammar(text))
	if err != nil {
		t.Fatal(err)
	}
	_, epoch, _ := s.store.GraphPos("g")
	ix := store.IndexData{Grammar: "q", Backend: "sparse-parallel", Epoch: epoch, Write: other.WriteIndex}
	if err := s.store.SaveIndexFrom("g", ix); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s, dir)
	got, err := relation(ctx, s2, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted service answers %v, want %v", got, want)
	}
}

// TestBackendNamesShareOneSlot: the names of one kernel key one index
// slot — one build, one index file under the canonical name.
func TestBackendNamesShareOneSlot(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	if err := s.RegisterGraph("g", graph.Word([]string{"x", "x", "y", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> x S y | x y"); err != nil {
		t.Fatal(err)
	}
	for _, be := range []string{"sparse-parallel", "sparse", ""} {
		if _, err := relation(ctx, s, Target{Graph: "g", Grammar: "q", Backend: be}, "S"); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.obs.indexBuilds.Value(); n != 1 {
		t.Fatalf("three names of the sparse kernel ran %d builds, want 1", n)
	}
	infos := s.store.Indexes("g")
	if len(infos) != 1 || infos[0].Backend != "sparse" {
		t.Fatalf("saved indexes %+v, want one under the name sparse", infos)
	}
}

// TestReplacedGraphGetsNoStaleIndex: a graph replaced while an index on
// it is being built must not receive that index among its own saved ones
// — a restart would warm-start the old graph's relation against the new
// graph's nodes. The pass hook replaces the graph mid-build.
func TestReplacedGraphGetsNoStaleIndex(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	old := graph.Word([]string{"x", "x", "y", "y"})
	if err := s.RegisterGraph("g", old, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> x S y | x y"); err != nil {
		t.Fatal(err)
	}
	replaced := make(chan error, 1)
	var once sync.Once
	buildCtx := cfpq.WithTraceContext(ctx, &cfpq.Trace{Pass: func(cfpq.PassEvent) {
		once.Do(func() {
			// The replacement waits for this build to finish before it
			// marks the slot stale; the swap itself is done when the
			// registry no longer names the old entry.
			s.mu.Lock()
			oldEntry := s.graphs["g"]
			s.mu.Unlock()
			go func() { replaced <- s.RegisterGraph("g", graph.Word([]string{"x", "y", "y", "y", "y"}), nil) }()
			for {
				s.mu.Lock()
				swapped := s.graphs["g"] != oldEntry
				s.mu.Unlock()
				if swapped {
					return
				}
				time.Sleep(time.Millisecond)
			}
		})
	}})
	if _, _, err := s.index(buildCtx, Target{Graph: "g", Grammar: "q"}.key()); err != nil {
		t.Fatal(err)
	}
	if err := <-replaced; err != nil {
		t.Fatal(err)
	}
	if infos := s.store.Indexes("g"); len(infos) != 0 {
		t.Fatalf("the replacement holds saved indexes %+v, want none", infos)
	}
	s2 := reopen(t, s, dir)
	if n := s2.obs.warmStarts.Value(); n != 0 {
		t.Fatalf("restart warm-started %d indexes, want none", n)
	}
	// x y y y y: no x^k y^k path longer than one pair.
	if n, err := count(ctx, s2, Target{Graph: "g", Grammar: "q"}, "S"); err != nil || n != 1 {
		t.Fatalf("restarted service counts %d S-pairs (err %v), want 1", n, err)
	}
}

// TestReplacedGrammarGetsNoStaleIndex: an index of a grammar that is
// replaced while the index is being saved leaves no file under the new
// grammar's text. The test parks an index save of its own in its Write,
// holding the graph's log lock, so that the replacement's drop of the
// grammar's files queues on that lock first and the build's save — its
// grammar still the registered one — second. Released, the drop runs
// before the save; the save must then write nothing, or a restart
// warm-starts the old text's relations under the new one.
func TestReplacedGrammarGetsNoStaleIndex(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	if err := s.RegisterGraph("g", graph.Word([]string{"x", "x", "y", "y"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> x S y | x y"); err != nil {
		t.Fatal(err)
	}
	_, epoch, err := s.store.GraphPos("g")
	if err != nil {
		t.Fatal(err)
	}
	parked, release, held := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		held <- s.store.SaveIndexFrom("g", store.IndexData{Grammar: "parked", Backend: "sparse", Epoch: epoch, Write: func(io.Writer) error {
			close(parked)
			<-release
			return errors.New("the parked save writes nothing")
		}})
	}()
	<-parked
	replaced, built := make(chan error, 1), make(chan error, 1)
	go func() { replaced <- s.RegisterGrammar("q", "S -> y S x | y x") }()
	waitParked(t, "(*Store).DropGrammarIndexes")
	go func() {
		_, _, err := s.index(ctx, Target{Graph: "g", Grammar: "q"}.key())
		built <- err
	}()
	waitParked(t, "(*Store).SaveIndexFrom")
	close(release)
	if err := <-held; err == nil {
		t.Fatal("the parked save succeeded")
	}
	if err := errors.Join(<-replaced, <-built); err != nil {
		t.Fatal(err)
	}
	if infos := s.store.Indexes("g"); len(infos) != 0 {
		t.Fatalf("the replaced grammar left saved indexes %+v, want none", infos)
	}
	s2 := reopen(t, s, dir)
	if n := s2.obs.warmStarts.Value(); n != 0 {
		t.Fatalf("restart warm-started %d indexes, want none", n)
	}
	// x x y y holds no y-then-x path.
	if n, err := count(ctx, s2, Target{Graph: "g", Grammar: "q"}, "S"); err != nil || n != 0 {
		t.Fatalf("restarted service counts %d S-pairs (err %v), want 0", n, err)
	}
}

// waitParked waits until a goroutine is blocked on a sync.Mutex inside fn,
// named as stack traces print it.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine parked on a mutex in %s", fn)
}

// TestConcurrentRegistrationsAgree races two registrations of each new
// graph name on a persistent service, a 10-node and a 20-node graph.
// Installs of one name are serialised, so the order of store writes is the
// order of registry swaps: after every round the store journals the graph
// and epoch the registry serves, and neither call fails on the other's
// staging directory. Run under -race.
func TestConcurrentRegistrationsAgree(t *testing.T) {
	s := persistentService(t, t.TempDir())
	small, large := graph.Chain(10, "a"), graph.Chain(20, "a")
	for round := range 300 {
		name := fmt.Sprintf("g%d", round)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, g := range []*graph.Graph{small, large} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = s.RegisterGraph(name, g, nil)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		ge, err := s.graphEntry(name)
		if err != nil {
			t.Fatal(err)
		}
		v := ge.cur.Load()
		nodes, epoch := v.g.Nodes(), v.epoch
		stored, fold, _, err := s.store.GraphState(name)
		if err != nil {
			t.Fatal(err)
		}
		if stored.Nodes() != nodes || fold.Epoch != epoch {
			t.Fatalf("round %d: the store holds %d nodes at epoch %d, the registry serves %d at epoch %d",
				round, stored.Nodes(), fold.Epoch, nodes, epoch)
		}
	}
}

// TestHTTPPersistenceEndpoints drives /healthz, /debug/vars and
// /v1/snapshot over HTTP against a persistent service; the store statistics
// are read where they are served, in /debug/vars and the snapshot's answer.
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
	if storeVars["wal_bytes"].(float64) == 0 || storeVars["appends"].(float64) != 1 ||
		len(storeVars["graphs"].([]any)) != 1 {
		t.Errorf("cfpqd_store vars: %v", storeVars)
	}

	// Snapshot over HTTP folds the WAL.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/snapshot", "")
	if code != http.StatusOK || body["snapshotted"] != true {
		t.Fatalf("snapshot: %d %v", code, body)
	}
	gs := body["store"].(map[string]any)["graphs"].([]any)[0].(map[string]any)
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
		wantEdges = ge.cur.Load().g.EdgeCount()
	}

	s2 := reopen(t, s, dir)
	ge, err := s2.graphEntry("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := ge.cur.Load().g.EdgeCount(); got != wantEdges {
		t.Fatalf("recovered %d edges, want %d", got, wantEdges)
	}
	got, err := relation(ctx, s2, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered relation differs (%d vs %d pairs)", len(got), len(want))
	}
}

// TestDamagedGraphStateIsAnError: a snapshot with a flipped CRC byte, and
// a CRC-valid one whose edge lies outside its node range, are errors — at
// Open (the CRC) or at the fold GraphState runs (the range), and from
// AttachStore in both cases, whether the damage was there at Open or came
// after it. A service never starts serving without a stored graph.
func TestDamagedGraphStateIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name      string
		damage    func(raw []byte)
		openFails bool
	}{
		{"flipped CRC byte", func(raw []byte) { raw[len(raw)-1] ^= 0xff }, true},
		{"edge outside the node range", func(raw []byte) {
			// CFPQSNAP1, baseSeq, then the node count: one node left for
			// the edge 0 → 2, and the CRC made to match.
			binary.LittleEndian.PutUint32(raw[len("CFPQSNAP1")+8:], 1)
			binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[len("CFPQSNAP1"):len(raw)-4]))
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openTestStore(t, dir)
			g := graph.New(3)
			g.AddEdge(0, "x", 2)
			if err := st.CreateGraph("g", g, nil); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "graphs", "g", "snapshot")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(raw)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			requireBroken := func(st *store.Store, when string) {
				t.Helper()
				if _, _, _, err := st.GraphState("g"); err == nil {
					t.Errorf("%s: GraphState folded a damaged snapshot", when)
				}
				if err := New().AttachStore(ctx, st); err == nil {
					t.Errorf("%s: AttachStore served a damaged snapshot", when)
				}
			}
			requireBroken(st, "damaged after Open")
			st.Close()
			st2, err := store.Open(dir, store.Options{NoSync: true, CompactBytes: -1})
			if tc.openFails {
				if err == nil {
					st2.Close()
					t.Fatal("Open accepted a snapshot with a bad CRC")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			requireBroken(st2, "damaged before Open")
		})
	}
}

package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cfpq/internal/dataset"
	"cfpq/internal/store"
)

// TestCheckpointBoundsTheReplay: a durable leader on g3 under Query 1,
// written to by the serving benchmark's kind of batch, checkpoints its index
// whenever the pairs derived since its file pass a quarter of the file's, so
// a restart without a snapshot replays at most that quarter — and answers
// as the never-restarted server does, without a closure.
func TestCheckpointBoundsTheReplay(t *testing.T) { checkpointDrill(t, false) }

// TestFollowerCheckpointBoundsTheReplay is TestCheckpointBoundsTheReplay on
// a follower, whose batches arrive through ApplyReplicatedEdges.
func TestFollowerCheckpointBoundsTheReplay(t *testing.T) { checkpointDrill(t, true) }

func checkpointDrill(t *testing.T, follower bool) {
	d, _ := dataset.ByName("g3")
	g := d.Build()
	text := dataset.Query1().String()
	dir := t.TempDir()
	s := persistentService(t, dir)
	if follower {
		s.SetReadOnly(true)
		if err := s.BootstrapGraph("g3", g.Clone(), nil, 0, 42); err != nil {
			t.Fatal(err)
		}
		if err := s.ApplyGrammar("q1", text); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := s.RegisterGraph("g3", g.Clone(), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterGrammar("q1", text); err != nil {
			t.Fatal(err)
		}
	}
	target := Target{Graph: "g3", Grammar: "q1"}
	if _, err := count(ctx, s, target, "S"); err != nil {
		t.Fatal(err)
	}
	apply := func(specs []EdgeSpec) {
		t.Helper()
		if !follower {
			if _, err := s.AddEdges(ctx, "g3", specs); err != nil {
				t.Fatal(err)
			}
			return
		}
		recs := make([]store.EdgeRecord, len(specs))
		for i, e := range specs {
			recs[i] = store.EdgeRecord(e)
		}
		seq, _, _ := s.GraphPos("g3")
		if err := s.ApplyReplicatedEdges(ctx, "g3", store.RecordTokens, recs, seq+uint64(len(recs))); err != nil {
			t.Fatal(err)
		}
	}
	// The serving benchmark's batch: a seeded random subClassOf edge between
	// two nodes of g3 that no earlier batch drew, and its inverse.
	rng := rand.New(rand.NewSource(1))
	drawn := map[[2]int]bool{}
	next := func() []EdgeSpec {
		for {
			x, y := rng.Intn(g.Nodes()), rng.Intn(g.Nodes())
			if x == y || drawn[[2]int{x, y}] || g.HasEdge(x, "subClassOf", y) {
				continue
			}
			drawn[[2]int{x, y}] = true
			a, b := strconv.Itoa(x), strconv.Itoa(y)
			return []EdgeSpec{{From: a, Label: "subClassOf", To: b}, {From: b, Label: "subClassOf_r", To: a}}
		}
	}
	// Two checkpoints, then a quarter as many batches again as the second
	// took: a tail the restart must replay.
	checkpoints := func() uint64 { return s.obs.indexSaves.With("checkpoint").Value() }
	batches, second := 0, 0
	for ; second == 0 || batches < second+second/4; batches++ {
		if batches == 3000 {
			t.Fatalf("%d batches made %d checkpoints, want 2", batches, checkpoints())
		}
		apply(next())
		if second == 0 && checkpoints() == 2 {
			second = batches + 1
		}
	}
	st := s.store
	infos := st.Indexes("g3")
	head, _, _ := s.GraphPos("g3")
	if len(infos) != 1 || infos[0].Seq >= head {
		t.Fatalf("index files %+v at head %d: want one, trailing the head", infos, head)
	}
	ix, _, err := st.LoadIndex(infos[0], s.grammars["q1"].cnf, nil)
	if err != nil {
		t.Fatal(err)
	}
	filed := entries(ix.Counts())
	want, err := relation(ctx, s, target, "S")
	if err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, s, dir)
	if n := s2.obs.warmStarts.Value(); n != 1 {
		t.Fatalf("the restart warm-started %d slots, want 1", n)
	}
	stats, ok := s2.IndexStatsFor(target)
	if !ok {
		t.Fatal("the restart restored no slot")
	}
	replayed := int64(stats.Entries) - filed
	t.Logf("%d batches, %d checkpoints; the file holds %d pairs at seq %d of %d, the replay derived %d",
		batches, checkpoints(), filed, infos[0].Seq, head, replayed)
	if replayed <= 0 || replayed > filed/4 {
		t.Errorf("the replay derived %d pairs, want 1 to a quarter of the file's %d", replayed, filed)
	}
	got, err := relation(ctx, s2, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("after the restart: %d pairs, want the never-restarted server's %d", len(got), len(want))
	}
	if n := s2.obs.indexBuilds.Value(); n != 0 {
		t.Errorf("the restart ran %d index builds", n)
	}
}

// chainService is a durable service whose graph "g" is the chain n0 → n1
// under "knows", queried by the grammar "r" of its transitive closure, built
// and saved: the edge n_k → n_k+1 then derives k+1 pairs, in an index of
// k(k+1)/2.
func chainService(t *testing.T, dir string) *Service {
	t.Helper()
	s := persistentService(t, dir)
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("n0 knows n1\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("r", "S -> knows | knows S"); err != nil {
		t.Fatal(err)
	}
	if _, err := count(ctx, s, Target{Graph: "g", Grammar: "r"}, "S"); err != nil {
		t.Fatal(err)
	}
	return s
}

// extend adds the chain's next edge, n_k → n_k+1.
func extend(t *testing.T, s *Service, k int) {
	t.Helper()
	if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: fmt.Sprintf("n%d", k), Label: "knows", To: fmt.Sprintf("n%d", k+1)}}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexSavesByCause: cfpqd_index_saves_total counts the index files
// saved, by cause — the build, every checkpoint (each moves the file's
// watermark), a snapshot — as /metrics reports them.
func TestIndexSavesByCause(t *testing.T) {
	dir := t.TempDir()
	s := chainService(t, dir)
	moves, seq := 0, s.store.Indexes("g")[0].Seq
	for k := 1; k <= 30; k++ {
		extend(t, s, k)
		if now := s.store.Indexes("g")[0].Seq; now != seq {
			moves, seq = moves+1, now
		}
	}
	if moves < 2 {
		t.Fatalf("test is vacuous: 30 batches moved the index file %d times", moves)
	}
	if err := s.Snapshot("g"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	metrics := scalarSamples(t, scrape(t, srv))
	for cause, want := range map[string]int{"build": 1, "checkpoint": moves, "snapshot": 1} {
		series := `cfpqd_index_saves_total{cause="` + cause + `"}`
		if got := metrics[series]; got != float64(want) {
			t.Errorf("%s = %v, want %d", series, got, want)
		}
	}
	if got, ok := metrics[`cfpqd_index_saves_total{cause="fold"}`]; ok {
		t.Errorf("a store that never folds reports %v fold saves", got)
	}
}

// TestFailedCheckpointKeepsTheFile: a checkpoint the store refuses — here
// because the graph's version names another stream epoch, as one of a
// replaced graph does — ticks cfpqd_persist_errors_total and leaves the
// previous index file as it was; the slot stays due, and the first batch
// whose save lands checkpoints it.
func TestFailedCheckpointKeepsTheFile(t *testing.T) {
	dir := t.TempDir()
	s := chainService(t, dir)
	path := filepath.Join(dir, "graphs", "g", "indexes", "r@sparse.idx")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := s.graphEntry("g")
	if err != nil {
		t.Fatal(err)
	}
	restamp := func(epoch uint64) {
		ge.writer.Lock()
		v := ge.cur.Load()
		ge.cur.Store(&graphVersion{g: v.g, seq: v.seq, version: v.version, epoch: epoch})
		ge.writer.Unlock()
	}
	epoch := ge.cur.Load().epoch
	restamp(epoch + 1)
	k := 1
	for ; s.obs.persistErrors.Value() == 0; k++ {
		if k == 10 {
			t.Fatal("test is vacuous: no checkpoint was attempted")
		}
		extend(t, s, k)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Errorf("the failed checkpoint changed the index file (err %v)", err)
	}
	if n := s.obs.indexSaves.With("checkpoint").Value(); n != 0 {
		t.Errorf("a refused checkpoint counted %d saves", n)
	}
	restamp(epoch)
	extend(t, s, k)
	head, _, _ := s.GraphPos("g")
	if infos := s.store.Indexes("g"); len(infos) != 1 || infos[0].Seq != head {
		t.Errorf("after the store accepts saves again: index files %+v, want one at the head %d", infos, head)
	}
	if n := s.obs.indexSaves.With("checkpoint").Value(); n != 1 {
		t.Errorf("%d checkpoint saves, want 1", n)
	}
}

package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cfpq/internal/graph"
	"cfpq/internal/replica"
	"cfpq/internal/store"
)

// Integration tests for the replication subsystem: a leader Service served
// over httptest, followed by a second Service driven by a real
// replica.Replicator. These run under -race in CI.

// fastReplOpts keeps the replication loops snappy for tests. StaleAfter is
// generous so a slow CI machine never trips the degraded state mid-test.
var fastReplOpts = replica.Options{
	PollWait:   250 * time.Millisecond,
	Backoff:    10 * time.Millisecond,
	MaxBackoff: 100 * time.Millisecond,
	StaleAfter: 30 * time.Second,
}

const reachGrammar = "S -> knows | knows S"

var socialEdges = strings.TrimSpace(`
alice	knows	bob
bob	knows	carol
carol	knows	dora
`)

// leaderService builds a persistent Service preloaded with the social
// graph and reachability grammar, served over httptest.
func leaderService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := persistentService(t, t.TempDir())
	if _, err := s.LoadGraph("social", "edgelist", strings.NewReader(socialEdges)); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", reachGrammar); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	return s, srv
}

// runningFollower is one follower node: its Service, its replicator, and a
// kill switch that simulates the process dying mid-stream.
type runningFollower struct {
	svc  *Service
	rep  *replica.Replicator
	kill func() // cancels the stream and waits for Run to return
}

// startFollower wires svc as a follower of leaderURL and starts the
// stream. The follower is registered for cleanup but can be killed earlier
// by the test.
func startFollower(t *testing.T, svc *Service, leaderURL, id string) *runningFollower {
	t.Helper()
	svc.SetReadOnly(true)
	rep := replica.New(&replica.Client{Base: leaderURL, FollowerID: id}, svc, fastReplOpts)
	svc.SetReplication(rep)
	rctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := rep.Run(rctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("follower %s: Run: %v", id, err)
		}
	}()
	var once bool
	kill := func() {
		if once {
			return
		}
		once = true
		cancel()
		<-done
	}
	t.Cleanup(kill)
	return &runningFollower{svc: svc, rep: rep, kill: kill}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// caughtUp reports whether the follower has applied everything the leader
// has journaled for the graph, on a live stream, and patched it into its
// cached indexes: a batch advances seq before its patch runs, and indexed
// follows once no patch is in flight, so a query from here on sees it. The
// replicator's status must say so too: it records a poll's progress only
// after the poll's last batch returned.
func caughtUp(f *runningFollower, leader *Service, graph string) bool {
	lseq, lepoch, ok := leader.GraphPos(graph)
	if !ok {
		return false
	}
	ge, err := f.svc.graphEntry(graph)
	if err != nil {
		return false
	}
	v := ge.cur.Load()
	fseq, fepoch, indexed := v.seq, v.epoch, ge.indexed.Load()
	st := f.rep.Status()
	recorded := slices.ContainsFunc(st.Graphs, func(g replica.GraphStatus) bool {
		return g.Graph == graph && g.AppliedSeq == lseq
	})
	return fepoch == lepoch && fseq == lseq && indexed == lseq && recorded && st.State == replica.StateStreaming
}

func TestFollowerWriteGate(t *testing.T) {
	s := New()
	s.SetReadOnly(true)
	if err := s.RegisterGrammar("g", reachGrammar); !errors.Is(err, ErrReadOnly) {
		t.Errorf("RegisterGrammar on a follower: err = %v, want ErrReadOnly", err)
	}
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader(socialEdges)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("LoadGraph on a follower: err = %v, want ErrReadOnly", err)
	}
	if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: "a", Label: "x", To: "b"}}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("AddEdges on a follower: err = %v, want ErrReadOnly", err)
	}

	// The HTTP layer maps the gate to 403 on every mutation route.
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	for _, req := range []struct{ method, path, body string }{
		{"PUT", "/v1/grammars/g", reachGrammar},
		{"PUT", "/v1/graphs/g", socialEdges},
		{"POST", "/v1/graphs/g/edges", `{"edges":[{"from":"a","label":"x","to":"b"}]}`},
	} {
		if code, _ := httpDo(t, srv, req.method, req.path, req.body); code != 403 {
			t.Errorf("%s %s on a follower = %d, want 403", req.method, req.path, code)
		}
	}

	s.SetReadOnly(false)
	if err := s.RegisterGrammar("g", reachGrammar); err != nil {
		t.Errorf("RegisterGrammar after opening the gate: %v", err)
	}
}

// TestLeaderFollowerReplication is the happy path end to end: bootstrap,
// live tailing of new writes, identical query answers on both nodes, and
// observability on both sides.
func TestLeaderFollowerReplication(t *testing.T) {
	leader, srv := leaderService(t)
	fdir := t.TempDir()
	f := startFollower(t, persistentService(t, fdir), srv.URL, "f1")
	waitFor(t, 10*time.Second, func() bool { return caughtUp(f, leader, "social") }, "initial sync")

	tgt := Target{Graph: "social", Grammar: "reach"}
	want, err := relation(ctx, leader, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	got, err := relation(ctx, f.svc, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("follower relation = %v, leader = %v", got, want)
	}

	// A write on the leader streams over and lands via the incremental
	// patch — one edge closes a cycle between existing nodes, the other
	// interns a fresh one — so the follower's cached index gains the new
	// pairs without a rebuild, as the leader's does.
	builds := f.svc.obs.indexBuilds.Value()
	if _, err := leader.AddEdges(ctx, "social", []EdgeSpec{
		{From: "dora", Label: "knows", To: "alice"},
		{From: "alice", Label: "knows", To: "erin"},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return caughtUp(f, leader, "social") }, "live tail")
	want, err = relation(ctx, leader, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	got, err = relation(ctx, f.svc, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after live tail: follower relation = %v, leader = %v", got, want)
	}
	if n := f.svc.obs.indexBuilds.Value(); n != builds {
		t.Errorf("follower rebuilt an index absorbing replicated edges (%d -> %d builds)", builds, n)
	}
	if m := f.svc.obs; m.replBatches.Value() == 0 || m.replEdges.Value() == 0 {
		t.Errorf("replication counters not ticking: %d batches, %d edges", m.replBatches.Value(), m.replEdges.Value())
	}

	// Follower-side status: applied seq == leader seq, zero lag.
	st := f.rep.Status()
	lseq, _, _ := leader.GraphPos("social")
	if len(st.Graphs) != 1 || st.Graphs[0].AppliedSeq != lseq || st.Graphs[0].LagRecords != 0 {
		t.Errorf("follower status = %+v, want applied seq %d with no lag", st, lseq)
	}
	if !st.Ready(0) {
		t.Errorf("caught-up follower not ready: %+v", st)
	}

	// Leader-side status: the follower shows up as a tail reservation.
	ls, ok := leader.ReplicationStatus().(map[string]any)
	if !ok || ls["role"] != "leader" {
		t.Fatalf("leader status = %#v, want role leader", leader.ReplicationStatus())
	}

	// HTTP observability on the follower.
	fsrv := httptest.NewServer(Handler(f.svc))
	defer fsrv.Close()
	if code, body := httpDo(t, fsrv, "GET", "/v1/replication/status", ""); code != 200 || body["role"] != "follower" {
		t.Errorf("GET /v1/replication/status = %d %v", code, body)
	}
	if code, _ := httpDo(t, fsrv, "GET", "/readyz", ""); code != 200 {
		t.Errorf("GET /readyz on a caught-up follower = %d, want 200", code)
	}
	if code, _ := httpDo(t, fsrv, "GET", "/healthz", ""); code != 200 {
		t.Errorf("GET /healthz = %d, want 200", code)
	}
}

// TestPartitionTolerance is the subsystem's acceptance invariant: the
// leader keeps taking writes while a follower is dead; on restart the
// follower catches up — through its WAL position when the tail survives,
// through a snapshot re-bootstrap when compaction folded it away — and a
// fixed query answers identically on both nodes.
func TestPartitionTolerance(t *testing.T) {
	for _, compact := range []bool{false, true} {
		name := "wal-catchup"
		if compact {
			name = "snapshot-rebootstrap"
		}
		t.Run(name, func(t *testing.T) {
			leader, srv := leaderService(t)
			fdir := t.TempDir()
			f := startFollower(t, persistentService(t, fdir), srv.URL, "f1")
			waitFor(t, 10*time.Second, func() bool { return caughtUp(f, leader, "social") }, "initial sync")

			// Build the follower's index now so the restart warm-starts it.
			tgt := Target{Graph: "social", Grammar: "reach"}
			if _, err := relation(ctx, f.svc, tgt, "S"); err != nil {
				t.Fatal(err)
			}

			// Kill the follower mid-stream: stream cancelled, store closed,
			// nothing flushed.
			f.kill()

			// The leader keeps taking writes during the partition.
			for i := 0; i < 3; i++ {
				if _, err := leader.AddEdges(ctx, "social", []EdgeSpec{
					{From: "eve", Label: "knows", To: fmt.Sprintf("n%d", i)},
				}); err != nil {
					t.Fatal(err)
				}
			}
			if compact {
				// Fold the WAL into the snapshot: the dead follower's tail
				// position is gone and catch-up must go through a fresh
				// snapshot (410 on the first poll after restart).
				if err := leader.Snapshot("social"); err != nil {
					t.Fatal(err)
				}
			}

			// Restart: warm-start from the follower's own files, then
			// resume the stream from the recovered position.
			f2 := startFollower(t, reopen(t, f.svc, fdir), srv.URL, "f1")
			waitFor(t, 10*time.Second, func() bool { return caughtUp(f2, leader, "social") }, "catch-up after restart")

			want, err := relation(ctx, leader, tgt, "S")
			if err != nil {
				t.Fatal(err)
			}
			got, err := relation(ctx, f2.svc, tgt, "S")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after catch-up: follower relation = %v, leader = %v", got, want)
			}

			st := f2.rep.Status()
			lseq, _, _ := leader.GraphPos("social")
			if len(st.Graphs) != 1 || st.Graphs[0].AppliedSeq != lseq {
				t.Fatalf("follower status = %+v, want applied seq %d", st, lseq)
			}
			if compact && st.Graphs[0].Bootstraps == 0 {
				t.Errorf("compacted tail caught up without a snapshot re-bootstrap: %+v", st.Graphs[0])
			}
			if !compact && st.Graphs[0].Bootstraps != 0 {
				t.Errorf("intact tail forced a re-bootstrap: %+v", st.Graphs[0])
			}
		})
	}
}

// TestCompactionRacingFollower interleaves leader writes with explicit
// compactions while a follower streams live: some polls lose the race and
// answer 410, and the follower must converge through re-bootstraps instead
// of diverging or wedging.
func TestCompactionRacingFollower(t *testing.T) {
	leader, srv := leaderService(t)
	// An in-memory follower (no store) exercises the nil-store paths of
	// the Applier too.
	f := startFollower(t, New(), srv.URL, "f1")
	waitFor(t, 10*time.Second, func() bool { return caughtUp(f, leader, "social") }, "initial sync")

	for i := 0; i < 5; i++ {
		if _, err := leader.AddEdges(ctx, "social", []EdgeSpec{
			{From: fmt.Sprintf("a%d", i), Label: "knows", To: fmt.Sprintf("b%d", i)},
		}); err != nil {
			t.Fatal(err)
		}
		// Compact immediately: whenever the follower has not polled the
		// batch yet, its next poll gets 410 and must re-bootstrap.
		if err := leader.Snapshot("social"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return caughtUp(f, leader, "social") }, "convergence under compaction")

	tgt := Target{Graph: "social", Grammar: "reach"}
	want, err := relation(ctx, leader, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	got, err := relation(ctx, f.svc, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after compaction race: follower relation = %v, leader = %v", got, want)
	}
}

// TestPromote turns a streaming follower into a writable leader via the
// HTTP surface.
func TestPromote(t *testing.T) {
	leader, srv := leaderService(t)
	f := startFollower(t, persistentService(t, t.TempDir()), srv.URL, "f1")
	waitFor(t, 10*time.Second, func() bool { return caughtUp(f, leader, "social") }, "initial sync")

	fsrv := httptest.NewServer(Handler(f.svc))
	defer fsrv.Close()
	code, body := httpDo(t, fsrv, "POST", "/v1/promote", "")
	rs, _ := body["replication"].(map[string]any)
	if code != 200 || body["promoted"] != true || rs["state"] != replica.StatePromoted {
		t.Fatalf("POST /v1/promote = %d %v, want 200 promoted", code, body)
	}

	// The write gate is open: the promoted node takes writes...
	if _, err := f.svc.AddEdges(ctx, "social", []EdgeSpec{
		{From: "zed", Label: "knows", To: "alice"},
	}); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	// ...and, having its own store, reports as a leader and stays ready.
	ls, ok := f.svc.ReplicationStatus().(map[string]any)
	if !ok || ls["role"] != "leader" || ls["promoted"] != true {
		t.Fatalf("promoted status = %#v, want a promoted leader", f.svc.ReplicationStatus())
	}
	if code, _ := httpDo(t, fsrv, "GET", "/readyz", ""); code != 200 {
		t.Errorf("GET /readyz after promote = %d, want 200", code)
	}
	// Promote is idempotent: the stream is already drained, so repeating
	// it succeeds without side effects.
	if code, body := httpDo(t, fsrv, "POST", "/v1/promote", ""); code != 200 || body["promoted"] != true {
		t.Errorf("second promote = %d %v, want 200 promoted", code, body)
	}
}

// TestReadyzStates pins the /readyz contract: leaders are always ready, a
// follower is unready while bootstrapping and once its lag exceeds the
// configured bound.
func TestReadyzStates(t *testing.T) {
	leader, lsrv := leaderService(t)
	if code, _ := httpDo(t, lsrv, "GET", "/readyz", ""); code != 200 {
		t.Errorf("leader /readyz = %d, want 200", code)
	}
	_ = leader

	// A follower whose stream never started is bootstrapping: unready.
	f := New()
	f.SetReadOnly(true)
	rep := replica.New(&replica.Client{Base: "http://127.0.0.1:0"}, f, fastReplOpts)
	f.SetReplication(rep)
	fsrv := httptest.NewServer(Handler(f))
	defer fsrv.Close()
	code, body := httpDo(t, fsrv, "GET", "/readyz", "")
	if code != 503 {
		t.Errorf("bootstrapping follower /readyz = %d %v, want 503", code, body)
	}
	if code, _ := httpDo(t, fsrv, "GET", "/healthz", ""); code != 200 {
		t.Errorf("bootstrapping follower /healthz = %d, want 200 (liveness is not readiness)", code)
	}
}

// TestReplicaGraphSnapshotBesideWrites: a bootstrap payload is encoded
// from the published version outside the graph lock while batches that
// intern fresh names publish the next ones. Every payload must decode to
// one consistent version: its edges are the three loaded plus one per
// journaled record up to its seq, and every node has its name.
func TestReplicaGraphSnapshotBesideWrites(t *testing.T) {
	s, _ := leaderService(t)
	const batches = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < batches; i++ {
			if _, err := s.AddEdges(ctx, "social", []EdgeSpec{{From: "alice", Label: "knows", To: fmt.Sprintf("n%d", i)}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		data, seq, _, err := s.ReplicaGraphSnapshot("social")
		if err != nil {
			t.Fatal(err)
		}
		g, names, decoded, err := store.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if decoded != seq || g.EdgeCount() != 3+int(seq) || g.Nodes() != 4+int(seq) {
			t.Fatalf("payload at seq %d decodes to seq %d with %d nodes and %d edges", seq, decoded, g.Nodes(), g.EdgeCount())
		}
		for id, name := range names {
			if name == "" {
				t.Fatalf("payload at seq %d: node %d has no name", seq, id)
			}
		}
	}
}

// sizeRecorder records the size of every write a handler makes.
type sizeRecorder struct {
	*httptest.ResponseRecorder
	sizes []int
}

func (w *sizeRecorder) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.ResponseRecorder.Write(p)
}

// TestReplicaBodiesWriteInChunks: the snapshot and the WAL tail page go
// out in writes of at most answerChunk bytes, so each write, not the whole
// body, must reach a follower within writeTimeout; the bodies are the
// snapshot's bytes and, after the page's format byte, the WAL file's.
func TestReplicaBodiesWriteInChunks(t *testing.T) {
	dir := t.TempDir()
	s := persistentService(t, dir)
	if err := s.RegisterGraph("g", graph.New(0), nil); err != nil {
		t.Fatal(err)
	}
	for b := range 10 {
		var edges []EdgeSpec
		for e := range 300 {
			edges = append(edges, EdgeSpec{From: fmt.Sprintf("node-%d-%d", b, e), Label: "knows", To: fmt.Sprintf("node-%d-%d", b, e+1)})
		}
		if _, err := s.AddEdges(ctx, "g", edges); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, epoch, err := s.ReplicaGraphSnapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "graphs", "g", "wal"))
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(s)
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/v1/replica/snapshot?graph=g", snap},
		{fmt.Sprintf("/v1/replica/wal?graph=g&from=0&epoch=%d", epoch), wal},
	} {
		w := &sizeRecorder{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, c.path, nil))
		body := w.Body.Bytes()
		if strings.Contains(c.path, "/wal") && len(body) > 0 {
			body = body[1:] // the page's format byte
		}
		if w.Code != http.StatusOK || !bytes.Equal(body, c.body) {
			t.Fatalf("%s: status %d, %d body bytes, want %d", c.path, w.Code, len(body), len(c.body))
		}
		if len(w.sizes) < 3 || slices.Max(w.sizes) > answerChunk {
			t.Errorf("%s: a %d-byte body went out in writes of %v bytes: want several, none past %d", c.path, len(body), w.sizes, answerChunk)
		}
	}
}

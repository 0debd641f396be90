package server

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cfpq"
	"cfpq/internal/baseline"
	"cfpq/internal/graph"
)

// TestServiceReadsDoNotWaitForPatch is the service-level half of the
// library's TestReadsDoNotWaitForTheWriter: Service.AddEdges is parked in
// the middle of its update closure — inside patchIndexes, holding the
// slot's indexEntry.mu — and queries, batches and stats on the built index
// must return meanwhile with the answers of the version published before.
// At the parent commit Service.index took indexEntry.mu for every query, so
// the first Do below deadlocks (the guard reports it).
func TestServiceReadsDoNotWaitForPatch(t *testing.T) {
	const k = 6
	s := anbnWordService(t, k)
	tgt := Target{Graph: "word", Grammar: "anbn", Backend: "sparse"}
	last, spare := fmt.Sprint(2*k-1), fmt.Sprint(2*k)
	type reads struct {
		Has     bool
		Count   int
		From    []NamedPair
		Batch   []BatchAnswer
		Version uint64
		Entries int
	}
	read := func() reads {
		t.Helper()
		var r reads
		var err error
		if r.Has, err = has(ctx, s, tgt, "S", "0", spare); err != nil {
			t.Fatal(err)
		}
		if r.Count, err = count(ctx, s, tgt, "S"); err != nil {
			t.Fatal(err)
		}
		if r.From, err = relation(ctx, s, tgt, "S", "0", "1"); err != nil {
			t.Fatal(err)
		}
		if r.Batch, err = s.QueryBatch(ctx, tgt, []BatchQuerySpec{
			{Op: "has", Nonterminal: "S", From: "0", To: spare},
			{Op: "count", Nonterminal: "S"},
		}); err != nil {
			t.Fatal(err)
		}
		st, ok := s.IndexStatsFor(tgt)
		if !ok {
			t.Fatal("the built index is missing from Stats")
		}
		r.Version, r.Entries = st.Version, st.Entries
		return r
	}
	before := read() // builds the index

	parked, resume, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	var once sync.Once
	unpark := func() { once.Do(func() { close(resume) }) }
	writeCtx := cfpq.WithTraceContext(ctx, &cfpq.Trace{Pass: func(ev cfpq.PassEvent) {
		if ev.Phase == "update" && ev.Pass == 1 {
			close(parked)
			<-resume
		}
	}})
	go func() {
		res, err := s.AddEdges(writeCtx, "word", []EdgeSpec{{From: last, Label: "b", To: spare}})
		if err == nil && res.Patched != 1 {
			err = fmt.Errorf("update result %+v, want one patched index", res)
		}
		done <- err
	}()
	<-parked
	guard := time.AfterFunc(30*time.Second, func() {
		t.Error("service reads are blocked behind a patch parked mid-closure")
		unpark()
	})
	during := read()
	guard.Stop()
	unpark()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(during, before) {
		t.Fatalf("reads beside the parked patch:\n%+v\nbefore it:\n%+v", during, before)
	}
	if after := read(); !after.Has || after.Count != before.Count+1 || after.Version != 1 {
		t.Fatalf("after the patch: %+v, want (0,%s) present, count %d, version 1", after, spare, before.Count+1)
	}
}

// TestDisconnectMidPatchKeepsTheIndex: a client that goes away between the
// journal append and the end of the patch — here its context is cancelled
// from the update's own pass hook, with two passes still to run — costs
// nothing. The batch is durable and published by then, so the patch runs to
// the end: the handle is patched, not dropped for a rebuild, and the
// subscribers on it keep their stream and are pushed the pair.
func TestDisconnectMidPatchKeepsTheIndex(t *testing.T) {
	const k = 6
	s := anbnWordService(t, k)
	tgt := Target{Graph: "word", Grammar: "anbn", Backend: "sparse"}
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub, ge, err := s.subscribe(subCtx, SubscribeRequest{Graph: "word", Grammar: "anbn", Backend: "sparse", Nonterminal: "S"}, false, 0)
	if err != nil {
		t.Fatal(err)
	}

	passes := 0
	writeCtx, disconnect := context.WithCancel(ctx)
	defer disconnect()
	writeCtx = cfpq.WithTraceContext(writeCtx, &cfpq.Trace{Pass: func(ev cfpq.PassEvent) {
		if ev.Phase == "update" && ev.Pass == 1 {
			disconnect()
		}
		passes++
	}})
	last, spare := fmt.Sprint(2*k-1), fmt.Sprint(2*k)
	res, err := s.AddEdges(writeCtx, "word", []EdgeSpec{{From: last, Label: "b", To: spare}})
	if err != nil || res.Patched != 1 || res.Invalidated != 0 {
		t.Fatalf("update under a cancelled request: %+v, %v; want one patched index", res, err)
	}
	if passes < 3 {
		t.Fatalf("the update ran %d trace events; the cancellation came too late to matter", passes)
	}
	select {
	case b, ok := <-sub.Updates():
		if want := []NamedPair{{From: "0", To: spare}}; !ok || b.Resync || !reflect.DeepEqual(ge.named(b.Pairs), want) {
			t.Fatalf("subscriber got %+v (open=%v), want %v pushed", b, ok, want)
		}
	default:
		t.Fatal("the patch pushed nothing to the subscriber")
	}
	if ok, err := has(ctx, s, tgt, "S", "0", spare); err != nil || !ok {
		t.Fatalf("Has(0,%s) = %v, %v after the patch", spare, ok, err)
	}
	if st, ok := s.IndexStatsFor(tgt); !ok || st.Version != 1 || s.obs.indexBuilds.Value() != 1 {
		t.Fatalf("index %+v (present=%v) after %d builds, want version 1 of the one build", st, ok, s.obs.indexBuilds.Value())
	}
}

// TestIndexVersionAndSwapMetricAreTruthful pins the two instruments of the
// versioned index: IndexStats.Version counts exactly the patches that
// published (new edges, propagated successfully) and the swap histogram
// holds one observation per patch applied to a handle, published or not.
func TestIndexVersionAndSwapMetricAreTruthful(t *testing.T) {
	const k = 6
	s := anbnWordService(t, k)
	tgt := Target{Graph: "word", Grammar: "anbn", Backend: "sparse"}
	if _, err := count(ctx, s, tgt, "S"); err != nil { // build
		t.Fatal(err)
	}
	check := func(step string, version uint64, swaps uint64) {
		t.Helper()
		st, ok := s.IndexStatsFor(tgt)
		if !ok || st.Version != version {
			t.Fatalf("%s: IndexStats.Version = %d (present=%v), want %d", step, st.Version, ok, version)
		}
		if got := s.obs.indexSwap.Count(); got != swaps {
			t.Fatalf("%s: swap histogram holds %d observations, want %d", step, got, swaps)
		}
	}
	check("built", 0, 0)
	edge := []EdgeSpec{{From: fmt.Sprint(2*k - 1), Label: "b", To: fmt.Sprint(2 * k)}}
	if _, err := s.AddEdges(ctx, "word", edge); err != nil {
		t.Fatal(err)
	}
	check("first patch", 1, 1)
	if _, err := s.AddEdges(ctx, "word", edge); err != nil { // a duplicate publishes nothing
		t.Fatal(err)
	}
	check("duplicate patch", 1, 2)
	if _, err := s.AddEdges(ctx, "word", []EdgeSpec{{From: "0", Label: "b", To: "1"}}); err != nil {
		t.Fatal(err)
	}
	check("second patch", 2, 3)
	if sum := s.obs.indexSwap.Sum(); sum <= 0 || sum > 1 {
		t.Fatalf("three swaps held the version lock for %v seconds in total", sum)
	}
}

// TestSnapshotBesideParkedPatchRecoversEveryEdge pins the watermark a
// snapshot saves an index under. The batch is journaled and the graph's seq
// bumped before the patch runs the update closure; a Snapshot landing while
// that closure is parked serialises the version published before it, and
// must not save it under the bumped seq — a restart would find the file "up
// to date", serve it unpatched, and (the snapshot having folded the WAL
// tail away) miss the batch's consequences for good. Two batches are in
// flight so that the second's start cannot pass for a settled position.
func TestSnapshotBesideParkedPatchRecoversEveryEdge(t *testing.T) {
	const k = 6
	dir := t.TempDir()
	s := persistentService(t, dir)
	word := make([]string, 0, 2*k-2)
	for i := 0; i < k; i++ {
		word = append(word, "a")
	}
	for i := 0; i < k-2; i++ {
		word = append(word, "b")
	}
	g := graph.Word(word)
	g.EnsureNode(2 * k)
	if err := s.RegisterGraph("word", g.Clone(), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("anbn", anbnGrammar); err != nil {
		t.Fatal(err)
	}
	tgt := Target{Graph: "word", Grammar: "anbn", Backend: "sparse"}
	if _, err := count(ctx, s, tgt, "S"); err != nil { // build (saved at seq 0)
		t.Fatal(err)
	}

	parked, resume, done := make(chan struct{}), make(chan struct{}), make(chan error, 2)
	var once sync.Once
	unpark := func() { once.Do(func() { close(resume) }) }
	writeCtx := cfpq.WithTraceContext(ctx, &cfpq.Trace{Pass: func(ev cfpq.PassEvent) {
		if ev.Phase == "update" && ev.Pass == 1 {
			close(parked)
			<-resume
		}
	}})
	add := func(c context.Context, from int) {
		spec := EdgeSpec{From: fmt.Sprint(from), Label: "b", To: fmt.Sprint(from + 1)}
		g.AddEdge(from, "b", from+1)
		go func() {
			_, err := s.AddEdges(c, "word", []EdgeSpec{spec})
			done <- err
		}()
	}
	add(writeCtx, 2*k-2)
	<-parked
	add(ctx, 2*k-1) // journals, then queues behind the parked patch
	ge, err := s.graphEntry("word")
	if err != nil {
		t.Fatal(err)
	}
	for journaled := uint64(0); journaled < 2; time.Sleep(time.Millisecond) {
		journaled = ge.cur.Load().seq
	}
	guard := time.AfterFunc(30*time.Second, func() {
		t.Error("Snapshot is blocked behind a patch parked mid-closure")
		unpark()
	})
	if err := s.Snapshot("word"); err != nil {
		t.Fatal(err)
	}
	guard.Stop()
	unpark()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	s2 := reopen(t, s, dir)
	got, err := relation(ctx, s2, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.obs.indexBuilds.Value(); n != 0 {
		t.Fatalf("the restart ran %d closures; the saved index was not warm-started", n)
	}
	cnf, err := cfpq.ToCNF(cfpq.MustParseGrammar(anbnGrammar))
	if err != nil {
		t.Fatal(err)
	}
	var want []NamedPair
	for _, p := range baseline.Hellings(g, cnf)["S"] {
		want = append(want, NamedPair{From: fmt.Sprint(p.I), To: fmt.Sprint(p.J)})
	}
	if len(want) != k {
		t.Fatalf("oracle holds %d pairs, want the %d of a^%d b^%d", len(want), k, k, k)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answers after snapshot-beside-a-patch and restart:\n%v\nHellings on every journaled edge:\n%v", got, want)
	}
}

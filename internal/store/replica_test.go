package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

// Tests for the leader-side replication surface of the store: the tailing
// read API (TailSince), stream identity (epoch), replicated appends, and
// the interplay between follower reservations and compaction.

func TestTailSinceBoundaries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	// Two batches: seqs (0,2] and (2,3].
	if _, err := s.Append("g", []EdgeRecord{
		{From: "a", Label: "x", To: "d"},
		{From: "b", Label: "y", To: "d"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("g", []EdgeRecord{
		{From: "d", Label: "z", To: "a"},
	}); err != nil {
		t.Fatal(err)
	}

	batches, head, remaining, ok := s.TailSince("g", 0, 0)
	if !ok || head != 3 || remaining != 0 {
		t.Fatalf("TailSince(0) = ok=%v head=%d remaining=%d, want ok 3 0", ok, head, remaining)
	}
	if len(batches) != 2 || batches[0].Seq != 2 || batches[1].Seq != 3 {
		t.Fatalf("TailSince(0) batches = %+v, want seqs 2,3", batches)
	}
	if len(batches[0].Recs) != 2 || len(batches[1].Recs) != 1 {
		t.Fatalf("batch record counts = %d,%d, want 2,1", len(batches[0].Recs), len(batches[1].Recs))
	}

	// From a batch boundary: only the later batch ships.
	batches, _, _, ok = s.TailSince("g", 2, 0)
	if !ok || len(batches) != 1 || batches[0].Seq != 3 {
		t.Fatalf("TailSince(2) = %+v ok=%v, want the seq-3 batch", batches, ok)
	}

	// Caught up: ok with no batches.
	batches, head, _, ok = s.TailSince("g", 3, 0)
	if !ok || len(batches) != 0 || head != 3 {
		t.Fatalf("TailSince(head) = %+v head=%d ok=%v, want empty ok", batches, head, ok)
	}

	// Inside a batch: frames are atomic, never a valid stream point.
	if _, _, _, ok := s.TailSince("g", 1, 0); ok {
		t.Error("TailSince(1) inside a batch reported ok")
	}
	// Past the head: the follower is from another stream.
	if _, _, _, ok := s.TailSince("g", 4, 0); ok {
		t.Error("TailSince(4) past the head reported ok")
	}
	if _, _, _, ok := s.TailSince("nope", 0, 0); ok {
		t.Error("TailSince on an unknown graph reported ok")
	}
}

func TestTailSincePaging(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append("g", []EdgeRecord{{From: "a", Label: "x", To: "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	all, _, _, ok := s.TailSince("g", 0, 0)
	if !ok || len(all) != 3 {
		t.Fatalf("unbounded tail = %d batches, want 3", len(all))
	}

	// A cap of exactly one frame pages one batch and tallies the rest.
	page, _, remaining, ok := s.TailSince("g", 0, all[0].Bytes)
	if !ok || len(page) != 1 || page[0].Seq != all[0].Seq {
		t.Fatalf("paged tail = %+v, want just the first batch", page)
	}
	if want := all[1].Bytes + all[2].Bytes; remaining != want {
		t.Errorf("remainingBytes = %d, want %d", remaining, want)
	}

	// Even a cap smaller than any frame ships at least one batch, so a
	// lagging follower always makes progress.
	page, _, _, ok = s.TailSince("g", 0, 1)
	if !ok || len(page) != 1 {
		t.Fatalf("tiny-cap tail = %d batches, want 1", len(page))
	}
}

func TestEpochPersistsAndChangesOnReplace(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	_, epoch1, err := s.GraphPos("g")
	if err != nil {
		t.Fatal(err)
	}
	if epoch1 == 0 {
		t.Fatal("CreateGraph minted epoch 0")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The epoch survives a restart: a follower of this leader resumes the
	// same stream.
	s2 := mustOpen(t, dir)
	seq, epoch2, err := s2.GraphPos("g")
	if err != nil {
		t.Fatal(err)
	}
	if epoch2 != epoch1 || seq != 0 {
		t.Fatalf("reopened pos = (%d, %d), want (0, %d)", seq, epoch2, epoch1)
	}

	// Replacing the graph mints a new epoch even though the seq range
	// overlaps, so a follower of the old stream gets 410, not bad data.
	g2, names2 := sampleGraph()
	if err := s2.CreateGraph("g", g2, names2); err != nil {
		t.Fatal(err)
	}
	if _, epoch3, _ := s2.GraphPos("g"); epoch3 == epoch1 {
		t.Error("replacement kept the old epoch")
	}
}

func TestCreateGraphAtRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	// A follower bootstraps at the leader's position, adopting its epoch.
	if err := s.CreateGraphAt("g", g, names, 42, 777); err != nil {
		t.Fatal(err)
	}
	seq, epoch, err := s.GraphPos("g")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || epoch != 777 {
		t.Fatalf("pos = (%d, %d), want (42, 777)", seq, epoch)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	if seq, epoch, _ := s2.GraphPos("g"); seq != 42 || epoch != 777 {
		t.Fatalf("reopened pos = (%d, %d), want (42, 777)", seq, epoch)
	}
}

func TestAppendReplicated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraphAt("g", g, names, 10, 5); err != nil {
		t.Fatal(err)
	}

	// A wrong start position must be rejected, not spliced in.
	err := s.AppendReplicated("g", RecordIDs, []EdgeRecord{{From: "0", Label: "x", To: "1"}}, 10)
	if !errors.Is(err, ErrSeqMismatch) {
		t.Fatalf("mis-sequenced append: err = %v, want ErrSeqMismatch", err)
	}

	// The leader journaled this batch with canonical-id resolution; the
	// follower must re-journal it with the same kind so its own replay
	// reproduces the exact id assignment.
	recs := []EdgeRecord{
		{From: "7", Label: "z", To: "0"},
		{From: "0", Label: "x", To: "2"},
	}
	if err := s.AppendReplicated("g", RecordIDs, recs, 12); err != nil {
		t.Fatal(err)
	}
	batches, head, _, ok := s.TailSince("g", 10, 0)
	if !ok || head != 12 || len(batches) != 1 {
		t.Fatalf("tail after replicated append = %+v head=%d ok=%v", batches, head, ok)
	}
	if batches[0].Kind != RecordIDs || !reflect.DeepEqual(batches[0].Recs, recs) {
		t.Fatalf("re-journaled batch = %+v, want kind ids with original records", batches[0])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay: "7" grew the node range as an id (no interning as a name).
	s2 := mustOpen(t, dir)
	g2, fold, seq, err := s2.GraphState("g")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 12 {
		t.Errorf("replayed seq = %d, want 12", seq)
	}
	if g2.Nodes() != 8 {
		t.Errorf("replayed nodes = %d, want 8 (id 7 grows the range)", g2.Nodes())
	}
	if names := fold.Names.ByID(); len(names) != 8 || names[7] != "" {
		t.Errorf("names = %v, want 8 entries with id 7 unnamed", names)
	}
	if !g2.HasEdge(7, "z", 0) || !g2.HasEdge(0, "x", 2) {
		t.Error("replayed graph is missing replicated edges")
	}
}

func TestCompactionRetention(t *testing.T) {
	dir := t.TempDir()
	// CompactBytes 1: any non-empty WAL counts as oversized, so eligibility
	// is decided purely by reservations.
	s, err := Open(dir, Options{NoSync: true, CompactBytes: 1, RetainFor: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	// A live reservation trailing the head holds compaction: CompactIfDue
	// leaves the WAL alone.
	s.ReserveTail("g", "f1", 0)
	appendOne := func(label string) uint64 {
		t.Helper()
		head, err := s.Append("g", []EdgeRecord{{From: "a", Label: label, To: "b"}})
		if err != nil {
			t.Fatal(err)
		}
		return head
	}
	compactIfDue := func(want bool, why string) {
		t.Helper()
		folded, err := s.CompactIfDue("g", nil)
		if err != nil {
			t.Fatal(err)
		}
		if folded != want {
			t.Errorf("CompactIfDue %s: folded %v, want %v (%+v)", why, folded, want, s.Stats().Graphs[0])
		}
	}
	head := appendOne("x")
	compactIfDue(false, "with a live trailing reservation")
	if st := s.Stats(); st.Compactions != 0 || st.Graphs[0].WALBytes == 0 {
		t.Fatalf("CompactIfDue folded a tail a live reservation needs: %d compactions, %+v", st.Compactions, st.Graphs[0])
	}
	// A caught-up follower never blocks compaction.
	s.ReserveTail("g", "f1", head)
	compactIfDue(true, "with the reservation at the head")
	// An expired reservation is pruned: a stalled follower holds the WAL
	// for at most RetainFor.
	s.ReserveTail("g", "f1", head)
	head = appendOne("y")
	compactIfDue(false, "with the reservation one batch behind")
	time.Sleep(60 * time.Millisecond)
	compactIfDue(true, "after the reservation expired")
	if st := s.Stats(); st.Compactions != 2 {
		t.Errorf("%d compactions, want the 2 folds", st.Compactions)
	}
	head = appendOne("z")

	// Explicit Compact ignores reservations entirely: the lagging follower
	// must get "snapshot required" from its old position afterwards.
	s.ReserveTail("g", "f1", 0)
	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := s.TailSince("g", 0, 0); ok {
		t.Error("compacted tail still served from seq 0")
	}
	if _, _, _, ok := s.TailSince("g", head, 0); !ok {
		t.Error("caught-up position unservable after compaction")
	}
}

func TestReplicaSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("g", []EdgeRecord{{From: "a", Label: "w", To: "e"}}); err != nil {
		t.Fatal(err)
	}
	g, fold, seq, err := s.GraphState("g")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := EncodeSnapshot(&raw, g, fold.Names.ByID(), seq); err != nil {
		t.Fatal(err)
	}
	g2, names2, seq2, err := DecodeSnapshot(raw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != seq {
		t.Errorf("decoded seq = %d, want %d", seq2, seq)
	}
	if g2.Nodes() != 4 || !g2.HasEdge(0, "w", 3) {
		t.Errorf("decoded graph = %v, want the appended edge a-w->e", g2)
	}
	if !reflect.DeepEqual(names2, []string{"a", "b", "c", "e"}) {
		t.Errorf("decoded names = %v", names2)
	}
	if _, _, _, err := s.GraphState("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown graph: err = %v, want ErrNotFound", err)
	}
	if got := len(g2.Edges()); got != 3 {
		t.Errorf("decoded edge count = %d, want 3 (sample + appended)", got)
	}
}

package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cfpq/internal/core"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// testOpts skips fsync: the tests simulate crashes by editing files, not
// by killing the process, and sync-per-append makes them needlessly slow.
var testOpts = Options{NoSync: true, CompactBytes: -1}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sampleGraph builds a small named graph: a → b → c with labels.
func sampleGraph() (*graph.Graph, []string) {
	g := graph.New(3)
	g.AddEdge(0, "x", 1)
	g.AddEdge(1, "y", 2)
	return g, []string{"a", "b", "c"}
}

func TestGraphStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	// Records mixing known names, new names and numeric ids.
	seq, err := s.Append("g", []EdgeRecord{
		{From: "a", Label: "x", To: "d"}, // interns d as node 3
		{From: "3", Label: "y", To: "0"}, // numeric addressing
		{From: "e", Label: "z", To: "e"}, // self-loop on new node 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("seq = %d, want 3", seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: snapshot + WAL replay must rebuild the same state.
	s2 := mustOpen(t, dir)
	g2, names2, seq2, err := s2.GraphState("g")
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != 3 {
		t.Errorf("recovered seq = %d, want 3", seq2)
	}
	if g2.Nodes() != 5 || g2.EdgeCount() != 5 {
		t.Errorf("recovered graph %v, want 5 nodes / 5 edges", g2)
	}
	wantNames := []string{"a", "b", "c", "d", "e"}
	if !reflect.DeepEqual(names2, wantNames) {
		t.Errorf("names = %v, want %v", names2, wantNames)
	}
	for _, e := range []graph.Edge{
		{From: 0, Label: "x", To: 1},
		{From: 1, Label: "y", To: 2},
		{From: 0, Label: "x", To: 3},
		{From: 3, Label: "y", To: 0},
		{From: 4, Label: "z", To: 4},
	} {
		if !g2.HasEdge(e.From, e.Label, e.To) {
			t.Errorf("recovered graph missing %v", e)
		}
	}
	if tail, ok := s2.EdgesSince("g", 0); !ok || len(tail) != 3 {
		t.Errorf("EdgesSince(0) = %v, %v", tail, ok)
	}
	if tail, ok := s2.EdgesSince("g", 2); !ok || len(tail) != 1 {
		t.Errorf("EdgesSince(2) = %v, %v", tail, ok)
	}
}

// appendBatches journals n single-edge batches with distinct labels.
func appendBatches(t *testing.T, s *Store, name string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Append(name, []EdgeRecord{
			{From: "a", Label: "l" + string(rune('0'+i)), To: "b"},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTornWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, "g", 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, graphsDir, "g", "wal")
	whole, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the WAL at every length: recovery must always land on a record
	// boundary at or before the cut, never fail, never over-recover.
	for cut := len(whole); cut >= 0; cut-- {
		if err := os.WriteFile(walPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, testOpts)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		_, _, seq, err := s2.GraphState("g")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		frame := len(whole) / 5 // identical single-edge frames
		wantRecords := cut / frame
		if int(seq) != wantRecords {
			t.Fatalf("cut %d: recovered seq %d, want %d", cut, seq, wantRecords)
		}
		// Recovery truncates the torn tail on disk.
		if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(wantRecords*frame) {
			t.Fatalf("cut %d: wal size %v after recovery, want %d", cut, fi.Size(), wantRecords*frame)
		}
		s2.Close()
	}
}

func TestCorruptWALRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, "g", 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, graphsDir, "g", "wal")
	whole, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(whole) / 5
	// Flip one payload byte in the third record: records 1–2 survive, the
	// corrupt record and everything after it are discarded.
	mut := append([]byte{}, whole...)
	mut[2*frame+8] ^= 0xff
	if err := os.WriteFile(walPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	_, _, seq, err := s2.GraphState("g")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Errorf("recovered seq = %d, want 2 (corruption in record 3)", seq)
	}
}

func TestSnapshotFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, "g", 4)
	if err := s.Snapshot("g", nil); err != nil {
		t.Fatal(err)
	}
	// WAL is empty, state intact, EdgesSince now needs repair below base.
	if fi, err := os.Stat(filepath.Join(dir, graphsDir, "g", "wal")); err != nil || fi.Size() != 0 {
		t.Errorf("wal size after snapshot: %v, %v", fi, err)
	}
	if _, ok := s.EdgesSince("g", 2); ok {
		t.Error("EdgesSince below the snapshot base reported ok")
	}
	if tail, ok := s.EdgesSince("g", 4); !ok || len(tail) != 0 {
		t.Errorf("EdgesSince(base) = %v, %v", tail, ok)
	}
	appendBatches(t, s, "g", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	g2, _, seq, err := s2.GraphState("g")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 || g2.EdgeCount() != 2+5 {
		t.Errorf("after snapshot+append reopen: seq %d edges %d, want 5 and 7", seq, g2.EdgeCount())
	}
}

func TestCreateGraphReplacesEverything(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, "g", 2)
	if err := s.SaveIndex("g", "q", "sparse", 2, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	fresh := graph.New(1)
	if err := s.CreateGraph("g", fresh, nil); err != nil {
		t.Fatal(err)
	}
	g2, _, seq, err := s.GraphState("g")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 || g2.Nodes() != 1 || g2.EdgeCount() != 0 {
		t.Errorf("replacement state: seq %d, %v", seq, g2)
	}
	if ixs := s.Indexes("g"); len(ixs) != 0 {
		t.Errorf("stale indexes survived replacement: %v", ixs)
	}
}

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	cnf := grammar.MustParseCNF("S -> x S y | x y")
	g := graph.New(0)
	g.AddEdge(0, "x", 1)
	g.AddEdge(1, "y", 2)
	if err := s.CreateGraph("g", g, nil); err != nil {
		t.Fatal(err)
	}
	// Stamped with the name of the retired row-parallel dense kernel, as a
	// store written before it went holds; it must load on the dense one.
	ix, _, _ := core.NewEngine(core.WithBackend(matrix.Dense())).RunContext(context.Background(), g, cnf)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex("g", "q", "dense-parallel", 0, buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	infos := s.Indexes("g")
	if len(infos) != 1 || infos[0].Grammar != "q" || infos[0].Backend != "dense-parallel" || infos[0].Seq != 0 {
		t.Fatalf("Indexes = %+v", infos)
	}
	got, seq, err := s.LoadIndex(infos[0], cnf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 || !got.Equal(ix) {
		t.Error("loaded index differs")
	}
	// nil backend materialises the recorded one.
	if got.Backend() == nil || got.Backend().Name() != "dense" {
		t.Errorf("loaded backend = %v, want dense", got.Backend())
	}

	// A payload-corrupted file still lists (listings read only the
	// header) but is refused by Load — which is where the CRC matters.
	path := filepath.Join(dir, graphsDir, "g", indexesDir, "q@dense-parallel.idx")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x55
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.Indexes("g"); len(got) != 1 {
		t.Errorf("payload-corrupt index dropped from listing: %v", got)
	}
	if _, _, err := s.LoadIndex(infos[0], cnf, nil); err == nil {
		t.Error("corrupt index loaded")
	}
	// A header-corrupted file (bad magic) is skipped even in listings.
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.Indexes("g"); len(got) != 0 {
		t.Errorf("magic-corrupt index still listed: %v", got)
	}
}

func TestDropGrammarIndexes(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	for _, gram := range []string{"q1", "q2"} {
		if err := s.SaveIndex("g", gram, "sparse", 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DropGrammarIndexes("q1"); err != nil {
		t.Fatal(err)
	}
	infos := s.Indexes("g")
	// Both files exist but carry junk payloads; listing validates only the
	// wrapper, so count files directly.
	var kept []string
	for _, info := range infos {
		kept = append(kept, info.Grammar)
	}
	entries, _ := os.ReadDir(filepath.Join(s.dir, graphsDir, "g", indexesDir))
	if len(entries) != 1 || entries[0].Name() != "q2@sparse.idx" {
		t.Errorf("surviving index files: %v (listed %v)", entries, kept)
	}
}

func TestGrammarsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	want := map[string]string{
		"plain":       "S -> a b",
		"weird name/": "S -> x S | x",
	}
	for name, text := range want {
		if err := s.SaveGrammar(name, text); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := mustOpen(t, dir)
	got, err := s2.Grammars()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Grammars = %v, want %v", got, want)
	}
}

func TestNameEncodingRoundTrip(t *testing.T) {
	cases := []string{"plain", "has space", "a/b", "pct%40", "@at", ".dot", "ünïcode", "UPPER.lower-_"}
	seen := map[string]bool{}
	for _, name := range cases {
		enc := encodeName(name)
		if seen[enc] {
			t.Fatalf("encoding collision on %q", enc)
		}
		seen[enc] = true
		dec, err := decodeName(enc)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if dec != name {
			t.Errorf("%q → %q → %q", name, enc, dec)
		}
		if filepath.Base(enc) != enc || enc == "." || enc == ".." {
			t.Errorf("%q encodes to unsafe path component %q", name, enc)
		}
	}
	// Graphs with hostile names must survive a store round trip.
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("../escape/attempt", g, names); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir)
	if got := s2.GraphNames(); !reflect.DeepEqual(got, []string{"../escape/attempt"}) {
		t.Errorf("GraphNames = %v", got)
	}
}

func TestLogAppendsIDTokens(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g := graph.New(2)
	g.AddEdge(0, "x", 1)
	if err := s.CreateGraph("g", g, nil); err != nil {
		t.Fatal(err)
	}
	l := s.Log("g")
	if err := l.AppendEdges([]graph.Edge{{From: 1, Label: "y", To: 2}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir)
	g2, _, seq, err := s2.GraphState("g")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || g2.Nodes() != 3 || !g2.HasEdge(1, "y", 2) {
		t.Errorf("recovered %v at seq %d", g2, seq)
	}
}

func TestLogIgnoresNumericNames(t *testing.T) {
	// A node NAMED "7" (at id 0) must not capture id-addressed appends to
	// node 7: Log frames are marked id-addressed and replay skips the
	// name table for them.
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g := graph.New(1)
	if err := s.CreateGraph("g", g, []string{"7"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Log("g").AppendEdges([]graph.Edge{{From: 7, Label: "x", To: 7}}); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, when string) {
		g2, _, _, err := st.GraphState("g")
		if err != nil {
			t.Fatal(err)
		}
		if !g2.HasEdge(7, "x", 7) || g2.HasEdge(0, "x", 0) {
			t.Errorf("%s: edge landed on the wrong node (has(7)=%v has(0)=%v)",
				when, g2.HasEdge(7, "x", 7), g2.HasEdge(0, "x", 0))
		}
	}
	check(s, "live mirror")
	s.Close()
	check(mustOpen(t, dir), "after replay")

	// Token-addressed appends keep the names-first rule: "7" resolves to
	// the node named "7" (id 0), matching the serving layer's interning.
	s2 := mustOpen(t, t.TempDir())
	if err := s2.CreateGraph("g", graph.New(1), []string{"7"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Append("g", []EdgeRecord{{From: "7", Label: "x", To: "7"}}); err != nil {
		t.Fatal(err)
	}
	g3, _, _, err := s2.GraphState("g")
	if err != nil {
		t.Fatal(err)
	}
	if !g3.HasEdge(0, "x", 0) {
		t.Error("token append did not resolve through the name table")
	}
}

func TestBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CompactBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, "g", 8) // well past 64 bytes of frames
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if len(st.Graphs) == 1 && st.Graphs[0].WALBytes == 0 && st.Graphs[0].BaseSeq == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never folded the WAL: %+v", st.Graphs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// State is intact after the fold.
	g2, _, seq, err := s.GraphState("g")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 || g2.EdgeCount() != 2+8 {
		t.Errorf("post-compaction state: seq %d, %v", seq, g2)
	}
}

func TestOpenRejectsForeignDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("something else"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOpts); err == nil {
		t.Error("foreign manifest accepted")
	}
}

// TestWALBytesNeedsNoLogLock: the /metrics gauge's source agrees with
// Stats().WALBytes through append, reopen, snapshot and replacement, and is
// readable while a graph's log lock is held (as it is across every fsync) —
// a scrape must never queue behind, or do file I/O under, the append lock.
func TestWALBytesNeedsNoLogLock(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	for _, name := range []string{"g", "h"} {
		if err := s.CreateGraph(name, g, names); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveGrammar("q", "S -> a"); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, when string, wantZero bool) {
		t.Helper()
		st := s.Stats()
		if got := s.WALBytes(); got != st.WALBytes || (got == 0) != wantZero {
			t.Errorf("%s: WALBytes() = %d, Stats().WALBytes = %d (want zero: %v)", when, got, st.WALBytes, wantZero)
		}
		if st.Grammars != 1 {
			t.Errorf("%s: Stats().Grammars = %d, want 1", when, st.Grammars)
		}
	}
	check(s, "fresh", true)
	appendBatches(t, s, "g", 3)
	appendBatches(t, s, "h", 2)
	check(s, "after appends", false)

	gl, err := s.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	gl.mu.Lock()
	held := s.WALBytes()
	gl.mu.Unlock()
	if held != s.Stats().WALBytes {
		t.Errorf("WALBytes() under the log lock = %d, want %d", held, s.Stats().WALBytes)
	}

	s.Close()
	s = mustOpen(t, dir)
	check(s, "after reopen", false)
	if err := s.Snapshot("g", nil); err != nil {
		t.Fatal(err)
	}
	check(s, "after snapshotting g", false)
	if err := s.CreateGraph("h", g, names); err != nil {
		t.Fatal(err)
	}
	check(s, "after replacing h", true)
}

func TestStatsReportsRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	appendBatches(t, s, "g", 3)
	s.Close()
	// Tear the tail: recovery stats must report truncated bytes.
	walPath := filepath.Join(dir, graphsDir, "g", "wal")
	whole, _ := os.ReadFile(walPath)
	if err := os.WriteFile(walPath, whole[:len(whole)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	st := s2.Stats()
	if st.ReplayedRecords != 2 {
		t.Errorf("ReplayedRecords = %d, want 2", st.ReplayedRecords)
	}
	if st.RecoveredBytes == 0 {
		t.Error("RecoveredBytes = 0, want the torn tail")
	}
	if len(st.Graphs) != 1 || st.Graphs[0].Seq != 2 {
		t.Errorf("graph stats: %+v", st.Graphs)
	}
}

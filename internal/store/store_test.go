package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

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
	g2, fold, seq2, err := s2.GraphState("g")
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
	if !reflect.DeepEqual(fold.Names.ByID(), wantNames) {
		t.Errorf("names = %v, want %v", fold.Names.ByID(), wantNames)
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
	if fold.BaseSeq != 0 || !reflect.DeepEqual(fold.Tail, []graph.Edge{
		{From: 0, Label: "x", To: 3}, {From: 3, Label: "y", To: 0}, {From: 4, Label: "z", To: 4},
	}) {
		t.Errorf("fold tail after base %d = %v, want the three journaled edges", fold.BaseSeq, fold.Tail)
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
	// WAL is empty, state intact, and the fold's tail starts at the new base.
	if fi, err := os.Stat(filepath.Join(dir, graphsDir, "g", "wal")); err != nil || fi.Size() != 0 {
		t.Errorf("wal size after snapshot: %v, %v", fi, err)
	}
	if _, fold, _, err := s.GraphState("g"); err != nil || fold.BaseSeq != 4 || len(fold.Tail) != 0 {
		t.Errorf("fold after snapshot: base %d, tail %v (err %v), want base 4 and no tail", fold.BaseSeq, fold.Tail, err)
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

// encoded is the SaveIndexFrom payload writer of an index's CFPQIDX4 encoding.
func encoded(ix *core.Index) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := ix.WriteTo(w)
		return err
	}
}

// TestIndexFileBytesPinned pins the index file (CFPQSIDX1 framing around
// the CFPQIDX4 payload) of the paper's Figure 5 example at seq 5, on each
// backend. The three ways an index file is written — SaveIndexFrom
// streaming the encoding, SaveIndex with it in memory, and Snapshot — are
// one save path and write the same bytes.
func TestIndexFileBytesPinned(t *testing.T) {
	pins := map[string]string{
		"dense":  "1c9c6fedb56d56b8b287c660bafce4eaf907fc11670ea4779cbcf8b637a97189",
		"sparse": "e7e6fe4843ab30440a05cccd83f2cfce751c8716ea1c1ece1445717a6d0715bb",
	}
	cnf := grammar.MustParseCNF(`
S -> S1 S5 | S3 S6 | S1 S2 | S3 S4
S5 -> S S2
S6 -> S S4
S1 -> subClassOf_r
S2 -> subClassOf
S3 -> type_r
S4 -> type`)
	g := graph.New(3) // paper Figure 5
	g.AddEdge(0, "subClassOf_r", 0)
	g.AddEdge(0, "type_r", 1)
	g.AddEdge(1, "type_r", 2)
	g.AddEdge(2, "subClassOf", 0)
	g.AddEdge(2, "type", 2)
	for _, be := range matrix.Backends() {
		ix, _, err := core.NewEngine(core.WithBackend(be)).RunContext(context.Background(), g, cnf)
		if err != nil {
			t.Fatal(err)
		}
		var encoding bytes.Buffer
		if _, err := ix.WriteTo(&encoding); err != nil {
			t.Fatal(err)
		}
		for _, via := range []string{"SaveIndexFrom", "SaveIndex", "Snapshot"} {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			if err := s.CreateGraph("fig5", g, nil); err != nil {
				t.Fatal(err)
			}
			_, epoch, _ := s.GraphPos("fig5")
			data := IndexData{Grammar: "q", Backend: be.Name(), Seq: 5, Epoch: epoch, Write: encoded(ix)}
			switch via {
			case "SaveIndexFrom":
				err = s.SaveIndexFrom("fig5", data)
			case "SaveIndex":
				err = s.SaveIndex("fig5", "q", be.Name(), 5, encoding.Bytes())
			default:
				err = s.Snapshot("fig5", []IndexData{data})
			}
			if err != nil {
				t.Fatalf("%s %s: %v", be.Name(), via, err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, graphsDir, "fig5", indexesDir, "q@"+be.Name()+indexExt))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != pins[be.Name()] {
				t.Errorf("%s %s: index file hashes to %s, pinned %s", be.Name(), via, got, pins[be.Name()])
			}
		}
	}
}

// TestSnapshotFileBytesPinned pins the CFPQSNAP1 graph snapshot encoding:
// the file CreateGraph writes for a graph with named and unnamed nodes and
// two labels, and the one Snapshot writes after token and id-addressed
// appends have grown it, must hash to the recorded values.
func TestSnapshotFileBytesPinned(t *testing.T) {
	const (
		created = "3c22ebb9c14b2fc873c774de4192504fd68485089f51eece1056024ad18d6802"
		folded  = "27a7150709f021634b8e5349045d81b9607285e7449970dc8d3657ac01753298"
	)
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g := graph.New(5)
	g.AddEdge(0, "x", 1)
	g.AddEdge(1, "y", 2)
	g.AddEdge(3, "x", 4)
	g.AddEdge(4, "y", 0)
	g.AddEdge(2, "x", 2)
	if err := s.CreateGraph("g", g, []string{"a", "", "c", "", "e"}); err != nil {
		t.Fatal(err)
	}
	hash := func() string {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, graphsDir, "g", "snapshot"))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		return hex.EncodeToString(sum[:])
	}
	if got := hash(); got != created {
		t.Errorf("created snapshot hashes to %s, pinned %s", got, created)
	}
	if _, err := s.Append("g", []EdgeRecord{
		{From: "a", Label: "y", To: "f"}, // interns f as node 5
		{From: "1", Label: "x", To: "7"}, // numeric: grows the range to 8
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Log("g").AppendEdges([]graph.Edge{{From: 6, Label: "y", To: 3}, {From: 5, Label: "x", To: 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("g", []EdgeRecord{{From: "g", Label: "x", To: "e"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot("g", nil); err != nil {
		t.Fatal(err)
	}
	if got := hash(); got != folded {
		t.Errorf("folded snapshot hashes to %s, pinned %s", got, folded)
	}
}

// TestFailedIndexWriteKeepsPreviousFile: a payload writer that fails
// mid-stream fails the save, through SaveIndexFrom and through Snapshot, and
// leaves the index file saved before it in place and no temp file behind.
func TestFailedIndexWriteKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex("g", "q", "sparse", 1, []byte("previous")); err != nil {
		t.Fatal(err)
	}
	indexes := filepath.Join(dir, graphsDir, "g", indexesDir)
	before, err := os.ReadFile(filepath.Join(indexes, "q@sparse"+indexExt))
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("disk gone")
	failing := func(w io.Writer) error {
		if _, err := w.Write(bytes.Repeat([]byte("new"), 10_000)); err != nil {
			return err
		}
		return broken
	}
	_, epoch, _ := s.GraphPos("g")
	data := IndexData{Grammar: "q", Backend: "sparse", Seq: 2, Epoch: epoch, Write: failing}
	for via, save := range map[string]func() error{
		"SaveIndexFrom": func() error { return s.SaveIndexFrom("g", data) },
		"Snapshot":      func() error { return s.Snapshot("g", []IndexData{data}) },
	} {
		if err := save(); !errors.Is(err, broken) {
			t.Fatalf("%s: err = %v, want the writer's", via, err)
		}
		entries, err := os.ReadDir(indexes)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "q@sparse"+indexExt {
			t.Errorf("%s: indexes/ holds %v, want the previous file only", via, entries)
		}
		if after, err := os.ReadFile(filepath.Join(indexes, "q@sparse"+indexExt)); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: the previous index file changed (err %v)", via, err)
		}
	}
	if infos := s.Indexes("g"); len(infos) != 1 || infos[0].Seq != 1 {
		t.Errorf("Indexes = %+v, want the previous file at seq 1", infos)
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
	_, epoch, _ := s.GraphPos("g")
	if err := s.SaveIndexFrom("g", IndexData{Grammar: "q", Backend: "dense-parallel", Epoch: epoch, Write: encoded(ix)}); err != nil {
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

// TestClosedStoreRefusesWrites: after Close, creating or replacing a graph,
// saving a grammar, saving an index and dropping a grammar's indexes all
// fail and leave the directory as it was; a creation racing Close leaves
// no WAL open once both have returned.
func TestClosedStoreRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex("g", "q", "sparse", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := treeOf(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"CreateGraph", func() error { return s.CreateGraph("h", g, names) }},
		{"CreateGraph (replace)", func() error { return s.CreateGraph("g", g, names) }},
		{"SaveGrammar", func() error { return s.SaveGrammar("q", "S -> x") }},
		{"SaveIndex", func() error { return s.SaveIndex("g", "q2", "sparse", 0, []byte("x")) }},
		{"DropGrammarIndexes", func() error { return s.DropGrammarIndexes("q") }},
	} {
		if err := tc.call(); err == nil {
			t.Errorf("%s on a closed store succeeded", tc.name)
		}
	}
	if after := treeOf(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("a closed store's directory changed:\n before %v\n after  %v", before, after)
	}

	r := mustOpen(t, t.TempDir())
	if err := r.CreateGraph("r", g, names); err != nil {
		t.Fatal(err)
	}
	var closed atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for after := 0; after < 100 && r.CreateGraph("r", g, names) == nil; {
			if closed.Load() {
				after++
			}
		}
	}()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	<-done
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, gl := range r.graphs {
		if gl.wal != nil {
			t.Errorf("graph %q kept an open WAL past Close", name)
		}
	}
}

// treeOf lists the paths under dir, relative to it.
func treeOf(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, _ os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		paths = append(paths, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
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
	check(s, "before reopening")
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

// TestThresholdCompaction: appends to two graphs, each followed by
// CompactIfDue as the serving layer calls it — every tail an append leaves
// above CompactBytes folds in that call (the WAL is never seen above it),
// each fold is one compaction, a second call right after a fold folds
// nothing, and the folded state is intact.
func TestThresholdCompaction(t *testing.T) {
	dir := t.TempDir()
	const compactBytes = 64
	s, err := Open(dir, Options{NoSync: true, CompactBytes: compactBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g, names := sampleGraph()
	for _, name := range []string{"g", "h"} {
		if err := s.CreateGraph(name, g, names); err != nil {
			t.Fatal(err)
		}
	}
	const batches = 8
	baseSeq := map[string]uint64{}
	folds := int64(0)
	for i := 0; i < batches; i++ {
		for _, name := range []string{"g", "h"} {
			if _, err := s.Append(name, []EdgeRecord{{From: "a", Label: "l" + string(rune('0'+i)), To: "b"}}); err != nil {
				t.Fatal(err)
			}
			folded, err := s.CompactIfDue(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			if folded {
				if again, err := s.CompactIfDue(name, nil); again || err != nil {
					t.Errorf("after batch %d to %s: a second CompactIfDue right after a fold answered %v, %v", i, name, again, err)
				}
			}
			st := s.Stats()
			for _, gs := range st.Graphs {
				if gs.WALBytes > compactBytes {
					t.Errorf("after batch %d to %s: %s's WAL holds %d bytes, above CompactBytes %d", i, name, gs.Graph, gs.WALBytes, compactBytes)
				}
				if gs.BaseSeq != baseSeq[gs.Graph] {
					if gs.Graph != name || !folded || gs.BaseSeq != gs.Seq || gs.WALBytes != 0 {
						t.Errorf("after batch %d to %s (folded %v): %s folded to %+v, want the appended graph folded to its head", i, name, folded, gs.Graph, gs)
					}
					baseSeq[gs.Graph] = gs.BaseSeq
					folds++
				} else if gs.Graph == name && folded {
					t.Errorf("after batch %d to %s: CompactIfDue reported a fold the stats do not show: %+v", i, name, gs)
				}
			}
			if st.Compactions != folds {
				t.Errorf("after batch %d to %s: %d compactions, %d folds seen", i, name, st.Compactions, folds)
			}
		}
	}
	if baseSeq["g"] == 0 || baseSeq["h"] == 0 {
		t.Fatalf("test is vacuous: %d batches of frames past %d bytes folded nothing (%v)", batches, compactBytes, baseSeq)
	}
	// State is intact after the folds.
	for _, name := range []string{"g", "h"} {
		g2, _, seq, err := s.GraphState(name)
		if err != nil {
			t.Fatal(err)
		}
		if seq != batches || g2.EdgeCount() != 2+batches {
			t.Errorf("%s post-compaction state: seq %d, %v", name, seq, g2)
		}
	}
}

// TestCompactIfDueFoldsOnce: callers that see the same oversized WAL
// together fold it once — the rule is re-checked under the log lock — and
// a negative CompactBytes turns the call off.
func TestCompactIfDueFoldsOnce(t *testing.T) {
	g, names := sampleGraph()
	for _, tc := range []struct {
		compactBytes int64
		folds        int
	}{{1, 1}, {-1, 0}} {
		s, err := Open(t.TempDir(), Options{NoSync: true, CompactBytes: tc.compactBytes})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateGraph("g", g, names); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append("g", []EdgeRecord{{From: "a", Label: "x", To: "b"}}); err != nil {
			t.Fatal(err)
		}
		const callers = 4
		var wg sync.WaitGroup
		var folded atomic.Int32
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ok, err := s.CompactIfDue("g", nil)
				if err != nil {
					t.Error(err)
				}
				if ok {
					folded.Add(1)
				}
			}()
		}
		wg.Wait()
		st := s.Stats()
		if int(folded.Load()) != tc.folds || st.Compactions != int64(tc.folds) {
			t.Errorf("CompactBytes %d: %d of %d callers folded, %d compactions; want %d", tc.compactBytes, folded.Load(), callers, st.Compactions, tc.folds)
		}
		if wantWAL := tc.folds == 0; (st.WALBytes > 0) != wantWAL {
			t.Errorf("CompactBytes %d: WAL holds %d bytes after the calls", tc.compactBytes, st.WALBytes)
		}
		s.Close()
	}
}

// TestFoldSkipsIndexThatFailsToSave: the indexes a size-triggered fold
// saves are best effort. One whose payload writer fails keeps its previous
// file and is reported, while the fold still writes the snapshot,
// truncates the WAL and saves the other indexes at its base.
func TestFoldSkipsIndexThatFailsToSave(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex("g", "bad", "sparse", 0, []byte("previous")); err != nil {
		t.Fatal(err)
	}
	head, err := s.Append("g", []EdgeRecord{{From: "a", Label: "x", To: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("disk gone")
	_, epoch, _ := s.GraphPos("g")
	indexes := func() []IndexData {
		return []IndexData{
			{Grammar: "bad", Backend: "sparse", Seq: head, Epoch: epoch, Write: func(io.Writer) error { return broken }},
			{Grammar: "good", Backend: "sparse", Seq: head, Epoch: epoch, Write: func(w io.Writer) error { _, err := w.Write([]byte("payload")); return err }},
		}
	}
	if folded, err := s.CompactIfDue("g", indexes); !folded || !errors.Is(err, broken) {
		t.Fatalf("CompactIfDue = %v, %v; want a fold that reports the failed save", folded, err)
	}
	st := s.Stats()
	if st.Compactions != 1 || st.WALBytes != 0 || st.Graphs[0].BaseSeq != head {
		t.Errorf("after the fold: %d compactions, %d WAL bytes, base %d; want 1, 0, %d", st.Compactions, st.WALBytes, st.Graphs[0].BaseSeq, head)
	}
	want := []IndexInfo{{Graph: "g", Grammar: "bad", Backend: "sparse", Seq: 0}, {Graph: "g", Grammar: "good", Backend: "sparse", Seq: head}}
	if got := s.Indexes("g"); !reflect.DeepEqual(got, want) {
		t.Errorf("Indexes = %+v, want %+v", got, want)
	}
}

// TestWithdrawnIndexSavesNothing: an index whose Write withdraws it saves
// no file and no error, from SaveIndexFrom and from a Snapshot alike, and
// the snapshot goes on.
func TestWithdrawnIndexSavesNothing(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	_, epoch, _ := s.GraphPos("g")
	withdrawn := IndexData{Grammar: "q", Backend: "sparse", Epoch: epoch, Write: func(io.Writer) error { return ErrIndexWithdrawn }}
	if err := s.SaveIndexFrom("g", withdrawn); err != nil {
		t.Fatalf("SaveIndexFrom of a withdrawn index: %v", err)
	}
	if err := s.Snapshot("g", []IndexData{withdrawn}); err != nil {
		t.Fatalf("Snapshot beside a withdrawn index: %v", err)
	}
	if got := s.Indexes("g"); len(got) != 0 {
		t.Errorf("Indexes = %+v, want none", got)
	}
	if s.Stats().Snapshots == 0 {
		t.Error("the snapshot was not written")
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

// TestInterruptedReplacementReopens builds by hand each on-disk state a
// graph replacement passes through (see CreateGraphAt) and reopens it: the
// store must come back with the old graph or the new one — the new one only
// once its directory sits under the live name — never with an error, and
// with no staging or retired directory left behind.
func TestInterruptedReplacementReopens(t *testing.T) {
	src := t.TempDir()
	s := mustOpen(t, src)
	g, names := sampleGraph()
	if err := s.CreateGraph("old", g, names); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("old", []EdgeRecord{{From: "c", Label: "z", To: "d"}}); err != nil {
		t.Fatal(err)
	}
	ng := graph.New(2)
	ng.AddEdge(0, "w", 1)
	if err := s.CreateGraph("new", ng, []string{"p", "q"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	type shape struct{ nodes, edges, seq int }
	old, fresh := shape{4, 3, 1}, shape{2, 1, 0}

	const live, staged, retired = "g", stagedPrefix + "g.123", retiredPrefix + "g"
	for _, tc := range []struct {
		name   string
		layout map[string]string // graphs/ entry → source graph; "partial" is new's snapshot alone
		want   shape
	}{
		{"staging", map[string]string{live: "old", staged: "partial"}, old},
		{"staged", map[string]string{live: "old", staged: "new"}, old},
		{"retired", map[string]string{retired: "old", staged: "new"}, old},
		{"swapped", map[string]string{retired: "old", live: "new"}, fresh},
		{"done", map[string]string{live: "new"}, fresh},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for entry, from := range tc.layout {
				dst := filepath.Join(dir, graphsDir, entry)
				if from == "partial" {
					raw, err := os.ReadFile(filepath.Join(src, graphsDir, "new", "snapshot"))
					if err == nil {
						err = os.MkdirAll(dst, 0o755)
					}
					if err == nil {
						err = os.WriteFile(filepath.Join(dst, "snapshot"), raw, 0o644)
					}
					if err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := os.CopyFS(dst, os.DirFS(filepath.Join(src, graphsDir, from))); err != nil {
					t.Fatal(err)
				}
			}
			s, err := Open(dir, testOpts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s.Close()
			g, _, seq, err := s.GraphState("g")
			if err != nil {
				t.Fatal(err)
			}
			if got := (shape{g.Nodes(), g.EdgeCount(), int(seq)}); got != tc.want {
				t.Errorf("recovered %+v, want %+v", got, tc.want)
			}
			entries, err := os.ReadDir(filepath.Join(dir, graphsDir))
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != live {
				t.Errorf("graphs/ holds %v after reopen, want only %q", entries, live)
			}
		})
	}
}

// TestStaleEpochIndexIsRefused: an index saved under the stream epoch of a
// graph since replaced is refused — through SaveIndexFrom and Snapshot —
// and the replacement lists no saved index.
func TestStaleEpochIndexIsRefused(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	g, names := sampleGraph()
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	_, stale, _ := s.GraphPos("g")
	if err := s.CreateGraph("g", g, names); err != nil {
		t.Fatal(err)
	}
	if _, epoch, _ := s.GraphPos("g"); epoch == stale {
		t.Fatalf("replacement kept epoch %d", epoch)
	}
	ix := IndexData{Grammar: "q", Backend: "sparse", Epoch: stale, Write: func(w io.Writer) error {
		_, err := w.Write([]byte("old graph's index"))
		return err
	}}
	if err := s.SaveIndexFrom("g", ix); err == nil {
		t.Error("SaveIndexFrom accepted an index of the replaced graph")
	}
	if err := s.Snapshot("g", []IndexData{ix}); err == nil {
		t.Error("Snapshot accepted an index of the replaced graph")
	}
	if infos := s.Indexes("g"); len(infos) != 0 {
		t.Errorf("Indexes = %+v, want none", infos)
	}
}

// allocatedBytes reports the heap bytes f allocates. TotalAlloc is
// process-wide, and the runtime puts a new OS thread's m and g structs
// (about 5 KiB) on the heap — a start it may make when ReadMemStats
// restarts the world on a busy machine — so a window in which a thread
// started is measured again, calling f again.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	for try := 1; ; try++ {
		runtime.GC()
		threads, _ := runtime.ThreadCreateProfile(nil)
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if now, _ := runtime.ThreadCreateProfile(nil); now == threads || try == 10 {
			return after.TotalAlloc - before.TotalAlloc
		}
	}
}

// TestOpenDecodesNoSnapshot: Open checks a snapshot's CRC and reads the
// WAL, and decodes no graph — opening a store that holds a 10k-node
// scale-free graph allocates under a quarter of what decoding its
// snapshot does. GraphState decodes it, and agrees with the graph written.
func TestOpenDecodesNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	g := graph.PreferentialAttachment(rand.New(rand.NewSource(1)), 10_000, 3, []string{"a", "b"})
	if err := s.CreateGraph("sf", g, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append("sf", []EdgeRecord{{From: strconv.Itoa(i), Label: "a", To: strconv.Itoa(9_999 - i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, graphsDir, "sf", "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	decode := allocatedBytes(func() {
		if _, _, _, err := DecodeSnapshot(raw); err != nil {
			t.Fatal(err)
		}
	})
	var s2 *Store
	open := allocatedBytes(func() {
		if s2 != nil {
			s2.Close() // a window measured again opens the store again
		}
		s2, err = Open(dir, testOpts)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if open*4 >= decode {
		t.Errorf("Open allocated %d bytes, decoding the snapshot %d: want under a quarter", open, decode)
	}
	g2, _, seq, err := s2.GraphState("sf")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 || g2.EdgeCount() != g.EdgeCount()+10 || g2.Nodes() != g.Nodes() {
		t.Errorf("folded %d nodes, %d edges at seq %d; want %d, %d at 10", g2.Nodes(), g2.EdgeCount(), seq, g.Nodes(), g.EdgeCount()+10)
	}
}

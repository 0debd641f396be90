// Package store is the durable storage subsystem behind cfpqd's
// persistent mode: a versioned on-disk layout holding graph snapshots,
// registered grammars and evaluated closure indexes, plus an append-only
// write-ahead log (WAL) of edge additions — so a restarted service
// warm-starts from saved state instead of re-loading graphs and re-running
// every closure.
//
// # Layout
//
//	<dir>/
//	    MANIFEST                              store magic + format version
//	    grammars/<name>.grammar               registered grammar texts
//	    graphs/<name>/
//	        snapshot                          graph + node names at baseSeq (CRC-trailed)
//	        wal                               CRC-framed AddEdges batches after baseSeq
//	        epoch                             edge-stream identity (minted at create/replace)
//	        indexes/<grammar>@<backend>.idx   evaluated index at a seq watermark
//	    graphs/.new-<name>.*, .old-<name>/    a replacement mid-swap (see CreateGraphAt)
//
// Registry names are escaped for the filesystem (see encodeName); every
// snapshot artifact carries a CRC trailer and is written atomically
// (temp + fsync + rename + dir fsync), and WAL appends fsync per batch
// unless Options.NoSync relaxes that for tests.
//
// # Sequencing and recovery
//
// Each graph has a monotonically increasing seq: the number of edges ever
// journaled for it. The snapshot records baseSeq (edges folded in), each
// index file records the seq its relations cover, and WAL frames carry the
// edges of (baseSeq, seq]. Open reads the WAL after each CRC-checked
// snapshot, truncating at the first torn or corrupt frame — a crash
// mid-append loses at most the batch being written, never earlier records.
// The store holds no graph; GraphState folds one from the files. An index
// whose watermark is behind the final seq is patched forward by the caller
// with the incremental delta closure (the fold's tail while it is still in
// the WAL; older indexes are repaired by re-seeding with the full edge
// set), so recovery never re-runs a closure from scratch.
//
// # Compaction
//
// A long WAL makes recovery slow; Compact writes the fold as a fresh
// snapshot and truncates the log. Index files survive compaction
// untouched: their seq watermark stays meaningful because the repair path
// above covers watermarks older than the snapshot base. CompactIfDue folds
// a graph whose WAL exceeds Options.CompactBytes, in the caller's own call:
// the serving layer makes it after every edge batch, so the batch that
// takes a WAL past the threshold pays for the fold. The store starts no
// goroutine, so a program that journals through Append or AppendReplicated
// and never calls CompactIfDue (or Compact) keeps a growing WAL.
package store

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cfpq/internal/core"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// ErrNotFound marks lookups of graphs, grammars or indexes the store does
// not hold.
var ErrNotFound = errors.New("not found in store")

// ErrTooLong marks a token or node name longer than the 65 535 bytes a WAL
// record or snapshot can frame: the input is at fault, not the disk.
var ErrTooLong = errors.New("too long")

const (
	manifestName    = "MANIFEST"
	manifestContent = "CFPQSTORE v1\n"
	grammarsDir     = "grammars"
	graphsDir       = "graphs"
	indexesDir      = "indexes"
	grammarExt      = ".grammar"
	indexExt        = ".idx"
	// A graph replacement stages the new directory under stagedPrefix and
	// retires the old one under retiredPrefix; encodeName never emits a
	// leading '.', so neither can name a live graph.
	stagedPrefix  = ".new-"
	retiredPrefix = ".old-"
)

// Options tunes a Store.
type Options struct {
	// NoSync disables fsync after WAL appends and snapshot writes. Only
	// tests and benchmarks should set it: a crash can then lose
	// acknowledged records.
	NoSync bool
	// CompactBytes is the WAL size above which CompactIfDue folds a
	// graph's log into a fresh snapshot. 0 means the 4 MiB default;
	// negative turns CompactIfDue off (Compact can still be called
	// explicitly).
	CompactBytes int64
	// RetainFor is how long a follower's tail reservation (ReserveTail)
	// keeps CompactIfDue away from WAL records the follower has not
	// streamed yet. 0 means the 30 s default; a follower that goes silent
	// longer than this stops holding compaction back and re-bootstraps
	// from the snapshot instead. Explicit Compact/Snapshot calls ignore
	// reservations.
	RetainFor time.Duration
}

const (
	defaultCompactBytes = 4 << 20
	defaultRetainFor    = 30 * time.Second
)

// Store is an open on-disk store. It is safe for concurrent use; every
// graph carries its own lock, so appends to different graphs proceed in
// parallel.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	graphs map[string]*graphLog
	// closed is set by Close, under mu: the store refuses writes after.
	closed atomic.Bool

	// watchCh is the change-broadcast channel: closed and replaced on
	// every append and registry change, so replication long-polls wake
	// without busy-waiting. Guarded by watchMu.
	watchMu sync.Mutex
	watchCh chan struct{}

	// reservations tracks follower tail positions per graph (graph name →
	// follower id → reservation), so CompactIfDue retains WAL
	// tails an attached follower still needs. Guarded by resMu.
	resMu        sync.Mutex
	reservations map[string]map[string]reservation

	// configVersion counts registry changes (graph created/replaced,
	// grammar saved). Followers compare it across polls to detect that
	// the leader's registry drifted and a manifest re-sync is due.
	configVersion atomic.Uint64

	appends     atomic.Int64
	snapshots   atomic.Int64
	compactions atomic.Int64
	walWritten  atomic.Int64 // WAL bytes written this session
	fsyncs      atomic.Int64 // WAL fsyncs issued this session
	replayed    atomic.Int64 // WAL records replayed at Open
	recovered   atomic.Int64 // bytes truncated from torn WAL tails at Open

	// fsyncObs, when set, observes every append-path WAL fsync's latency —
	// the serving layer's fsync-latency histogram hook (SetFsyncObserver).
	fsyncObs atomic.Pointer[func(time.Duration)]
}

// SetFsyncObserver installs a callback invoked with the wall time of every
// WAL fsync issued on the append path. The serving layer feeds its fsync
// latency histogram through it; nil removes the observer. Safe to call
// while the store is serving.
func (s *Store) SetFsyncObserver(fn func(d time.Duration)) {
	if fn == nil {
		s.fsyncObs.Store(nil)
		return
	}
	s.fsyncObs.Store(&fn)
}

// reservation is one follower's replication position on one graph.
type reservation struct {
	seq  uint64
	seen time.Time
}

// graphLog is one graph's journal: the open WAL, the stream position and
// the WAL's batches. It holds no graph: fold reads one from its files.
type graphLog struct {
	mu   sync.Mutex
	name string
	dir  string
	wal  *os.File

	baseSeq  uint64      // seq covered by the on-disk snapshot
	seq      uint64      // seq after the last record
	epoch    uint64      // edge-stream identity; changes when the graph is replaced
	tail     []TailBatch // the WAL batches of (baseSeq, seq], original tokens kept
	snapTime time.Time

	// walSize is the WAL's length in bytes. Written under mu; atomic so
	// WALBytes can sum it without taking any graph's lock.
	walSize atomic.Int64
}

// TailBatch is one WAL batch as the replication stream ships it: the
// records of the seq range (Seq-len(Recs), Seq], the resolution kind a
// follower's replay must use, and the frame's size in WAL bytes (the unit
// replication lag-in-bytes is measured in).
type TailBatch struct {
	Seq   uint64
	Kind  RecordKind
	Recs  []EdgeRecord
	Bytes int64
}

// Batch returns b: ReadTailPage checks a page whole, so a batch taken from
// it cannot fail, and callers of a per-batch decode step keep working.
func (b TailBatch) Batch() (TailBatch, error) { return b, nil }

// Open opens (creating if needed) a store rooted at dir and recovers its
// state: graph replacements a crash cut short are settled, every graph's
// snapshot is CRC-checked and its WAL read, with torn tails truncated to
// the last good record.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactBytes == 0 {
		opts.CompactBytes = defaultCompactBytes
	}
	if opts.RetainFor == 0 {
		opts.RetainFor = defaultRetainFor
	}
	for _, d := range []string{dir, filepath.Join(dir, grammarsDir), filepath.Join(dir, graphsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	manifest := filepath.Join(dir, manifestName)
	if raw, err := os.ReadFile(manifest); err == nil {
		if string(raw) != manifestContent {
			return nil, fmt.Errorf("store: %s is not a version-1 cfpq store (manifest %q)", dir, raw)
		}
	} else if os.IsNotExist(err) {
		if werr := writeFileAtomic(manifest, !opts.NoSync, func(w io.Writer) error {
			_, err := io.WriteString(w, manifestContent)
			return err
		}); werr != nil {
			return nil, werr
		}
	} else {
		return nil, err
	}

	s := &Store{
		dir:          dir,
		opts:         opts,
		graphs:       map[string]*graphLog{},
		watchCh:      make(chan struct{}),
		reservations: map[string]map[string]reservation{},
	}
	if err := settleSwaps(filepath.Join(dir, graphsDir)); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(dir, graphsDir))
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name, err := decodeName(ent.Name())
		if err != nil {
			return nil, fmt.Errorf("store: undecodable graph directory %q: %v", ent.Name(), err)
		}
		gl, err := s.openGraphLog(name)
		if err != nil {
			return nil, fmt.Errorf("store: recovering graph %q: %w", name, err)
		}
		s.graphs[name] = gl
	}
	return s, nil
}

// openGraphLog checks one graph's snapshot, reads and truncates its WAL,
// and leaves the WAL open for appending.
func (s *Store) openGraphLog(name string) (*graphLog, error) {
	gdir := filepath.Join(s.dir, graphsDir, encodeName(name))
	baseSeq, err := readFileHead(filepath.Join(gdir, "snapshot"), snapshotMagic, "snapshot", true)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(filepath.Join(gdir, "snapshot"))
	if err != nil {
		return nil, err
	}
	epoch, ok := readEpochFile(gdir)
	if !ok {
		// Pre-epoch store layout (or a lost epoch file): mint one now. It
		// persists from here on, so followers attached to this graph keep a
		// stable stream identity across restarts.
		epoch = mintEpoch()
		if err := writeEpochFile(gdir, epoch, !s.opts.NoSync); err != nil {
			return nil, err
		}
	}
	gl := &graphLog{
		name:     name,
		dir:      gdir,
		baseSeq:  baseSeq,
		seq:      baseSeq,
		epoch:    epoch,
		snapTime: st.ModTime(),
	}
	wal, err := os.OpenFile(filepath.Join(gdir, "wal"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	goodBytes, err := replayWAL(wal, func(b walBatch, frameBytes int64) error {
		gl.apply(b, frameBytes)
		s.replayed.Add(int64(len(b.recs)))
		return nil
	})
	if err != nil {
		wal.Close()
		return nil, err
	}
	if size, err := wal.Seek(0, io.SeekEnd); err != nil {
		wal.Close()
		return nil, err
	} else if size > goodBytes {
		// Torn tail: truncate to the last good frame so future appends
		// start on a clean boundary.
		s.recovered.Add(size - goodBytes)
		if err := wal.Truncate(goodBytes); err != nil {
			wal.Close()
			return nil, err
		}
		if !s.opts.NoSync {
			if err := wal.Sync(); err != nil {
				wal.Close()
				return nil, err
			}
		}
	}
	if _, err := wal.Seek(goodBytes, io.SeekStart); err != nil {
		wal.Close()
		return nil, err
	}
	gl.wal = wal
	gl.walSize.Store(goodBytes)
	return gl, nil
}

// apply advances seq past one frame and keeps its records — the log's own
// copy: snapshots are folded from them — in the tail served to followers.
// frameBytes is the frame's on-disk size (the unit of replication lag).
func (gl *graphLog) apply(b walBatch, frameBytes int64) {
	gl.seq += uint64(len(b.recs))
	gl.tail = append(gl.tail, TailBatch{Seq: gl.seq, Kind: RecordKind(b.kind), Recs: b.recs, Bytes: frameBytes})
}

// fold decodes the snapshot and interns the tail over it through
// graph.Names, as every holder of the stream does, so it assigns the ids
// the original mutations did. Callers hold gl.mu.
func (gl *graphLog) fold() (*graph.Graph, Fold, error) {
	raw, err := os.ReadFile(filepath.Join(gl.dir, "snapshot"))
	if err != nil {
		return nil, Fold{}, err
	}
	g, byID, _, err := DecodeSnapshot(raw)
	if err != nil {
		return nil, Fold{}, fmt.Errorf("store: graph %q: %w", gl.name, err)
	}
	f := Fold{Names: graph.NewNames(g.Nodes(), byID), BaseSeq: gl.baseSeq, Epoch: gl.epoch, Tail: make([]graph.Edge, 0, gl.seq-gl.baseSeq)}
	for _, b := range gl.tail {
		idsOnly := b.Kind == RecordIDs
		for _, r := range b.Recs {
			from := f.Names.Intern(g, r.From, idsOnly)
			to := f.Names.Intern(g, r.To, idsOnly)
			g.AddEdge(from, r.Label, to)
			f.Tail = append(f.Tail, graph.Edge{From: from, Label: r.Label, To: to})
		}
	}
	return g, f, nil
}

// lookup returns the graphLog for a registered graph.
func (s *Store) lookup(name string) (*graphLog, error) {
	s.mu.Lock()
	gl := s.graphs[name]
	s.mu.Unlock()
	if gl == nil {
		return nil, fmt.Errorf("store: graph %q: %w", name, ErrNotFound)
	}
	return gl, nil
}

// CreateGraph installs (or replaces) a graph: a fresh directory with a
// full snapshot at seq 0 and an empty WAL. Replacing drops the previous
// snapshot, WAL and every saved index (their node-id namespace died with
// the old graph). names maps node id → name and may be nil.
func (s *Store) CreateGraph(name string, g *graph.Graph, names []string) error {
	return s.CreateGraphAt(name, g, names, 0, 0)
}

// CreateGraphAt is CreateGraph with an explicit starting seq and stream
// epoch: the snapshot records that its edges cover the stream's first seq
// records. A follower bootstrapping from a leader snapshot passes the
// leader's seq and epoch so its local edge-stream position and identity
// line up with the leader's WAL; epoch 0 mints a fresh identity (the
// leader/standalone case). g and names are written, not kept.
//
// The new graph is written and synced in a staging directory beside the
// graph it replaces, then swapped in by two renames — the old directory to
// .old-<enc>, the staged one to <enc> — and a sync of graphs/; only then is
// the old WAL closed and .old-<enc> removed. A call that fails leaves the
// old graph as it was, registered and writable, and Open settles a swap a
// crash cut short (settleSwaps).
func (s *Store) CreateGraphAt(name string, g *graph.Graph, names []string, seq, epoch uint64) error {
	if name == "" {
		return fmt.Errorf("store: empty graph name")
	}
	if s.closed.Load() {
		return errClosed
	}
	enc := encodeName(name)
	graphs := filepath.Join(s.dir, graphsDir)
	gdir := filepath.Join(graphs, enc)
	retired := filepath.Join(graphs, retiredPrefix+enc)
	if epoch == 0 {
		epoch = mintEpoch()
	}
	gl := &graphLog{
		name:     name,
		dir:      gdir,
		baseSeq:  seq,
		seq:      seq,
		epoch:    epoch,
		snapTime: time.Now(),
	}
	sync := !s.opts.NoSync
	stage, err := os.MkdirTemp(graphs, stagedPrefix+enc+".")
	if err != nil {
		return err
	}
	var wal *os.File
	// abort drops the staged graph. Its cleanup is best effort: Open removes
	// a staging directory left behind.
	abort := func(err error) error {
		if wal != nil {
			wal.Close()
		}
		os.RemoveAll(stage)
		return err
	}
	if err := os.Chmod(stage, 0o755); err != nil {
		return abort(err)
	}
	// The WAL comes first: the directory sync of the last atomic write then
	// makes all three entries durable.
	if wal, err = os.OpenFile(filepath.Join(stage, "wal"), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return abort(err)
	}
	if err := writeFileAtomic(filepath.Join(stage, "snapshot"), sync, func(w io.Writer) error {
		return EncodeSnapshot(w, g, names, seq)
	}); err != nil {
		return abort(err)
	}
	if err := writeEpochFile(stage, epoch, sync); err != nil {
		return abort(err)
	}

	s.mu.Lock()
	old := s.graphs[name]
	s.mu.Unlock()
	if old != nil {
		old.mu.Lock()
		defer old.mu.Unlock()
	}
	// A .old-<enc> found here is garbage of a finished swap whose removal
	// failed; the graph at <enc> is the live one.
	if err := os.RemoveAll(retired); err != nil {
		return abort(err)
	}
	if err := os.Rename(gdir, retired); err != nil && !os.IsNotExist(err) {
		return abort(err)
	}
	// On a failure from here the renames are undone, best effort: whatever
	// state they leave, Open settles to the old graph or the new one.
	err = os.Rename(stage, gdir)
	if err == nil && sync {
		if err = syncDir(graphs); err != nil {
			os.Rename(gdir, stage)
		}
	}
	if err != nil {
		os.Rename(retired, gdir)
		return abort(err)
	}
	if old != nil && old.wal != nil {
		old.wal.Close()
		old.wal = nil
	}
	os.RemoveAll(retired) // best effort: Open removes a leftover
	gl.wal = wal
	s.mu.Lock()
	if s.closed.Load() {
		// Close has run: its WALs are closed, and so is this one.
		s.mu.Unlock()
		wal.Close()
		return errClosed
	}
	s.graphs[name] = gl
	s.mu.Unlock()
	s.snapshots.Add(1)
	s.configVersion.Add(1)
	s.changed()
	return nil
}

// settleSwaps finishes or undoes the graph replacements a crash cut short
// (see CreateGraphAt). A staging directory was never acknowledged and goes.
// A retired directory goes when its replacement is in place, and moves
// back when the crash came between the two renames.
func settleSwaps(graphs string) error {
	entries, err := os.ReadDir(graphs)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		path := filepath.Join(graphs, ent.Name())
		live, retired := strings.CutPrefix(ent.Name(), retiredPrefix)
		switch {
		case strings.HasPrefix(ent.Name(), stagedPrefix):
			err = os.RemoveAll(path)
		case retired:
			if _, err = os.Stat(filepath.Join(graphs, live)); err == nil {
				err = os.RemoveAll(path)
			} else if os.IsNotExist(err) {
				err = os.Rename(path, filepath.Join(graphs, live))
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Append journals one batch of edges for a graph: the frame is written
// and fsynced (the write-ahead contract — callers apply the mutation
// in memory only after Append returns), the log's tail grows, and the
// new seq is returned. Batches from concurrent callers serialise per graph.
func (s *Store) Append(name string, recs []EdgeRecord) (uint64, error) {
	return s.append(name, recTokens, recs, -1)
}

// ErrSeqMismatch marks a replicated append whose batch does not start at
// the graph's current edge-stream position — the local copy diverged from
// the leader's stream and must re-bootstrap from a snapshot.
var ErrSeqMismatch = errors.New("store: replicated batch out of sequence")

// AppendReplicated journals one batch at an explicit stream position,
// preserving its resolution kind: a frame received from a replication
// stream, or — the serving layer journals every batch through here — a
// local write at the position its in-memory graph holds. endSeq is the seq
// after the batch; the append is rejected with ErrSeqMismatch unless the
// batch lands exactly at the graph's current position, so a follower can
// never silently skip or double-apply records and a serving layer can never
// journal past a log it has drifted from.
func (s *Store) AppendReplicated(name string, kind RecordKind, recs []EdgeRecord, endSeq uint64) error {
	if !kind.Valid() {
		return fmt.Errorf("store: unknown WAL record kind %d", byte(kind))
	}
	if uint64(len(recs)) > endSeq {
		return fmt.Errorf("store: batch of %d records cannot end at seq %d: %w", len(recs), endSeq, ErrSeqMismatch)
	}
	_, err := s.append(name, byte(kind), recs, int64(endSeq)-int64(len(recs)))
	return err
}

// append journals one batch. expectStart ≥ 0 demands the batch start
// exactly at that seq (the replicated-apply contract); -1 skips the check.
func (s *Store) append(name string, kind byte, recs []EdgeRecord, expectStart int64) (uint64, error) {
	gl, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		gl.mu.Lock()
		defer gl.mu.Unlock()
		return gl.seq, nil
	}
	for _, r := range recs {
		if r.Label == "" || r.From == "" || r.To == "" {
			// Empty node tokens are rejected for the same reason the
			// frame decoder treats them as corruption: an empty name
			// cannot round-trip through the snapshot's name table.
			return 0, fmt.Errorf("store: record %+v has an empty token", r)
		}
	}
	gl.mu.Lock()
	defer gl.mu.Unlock()
	if gl.wal == nil {
		return 0, fmt.Errorf("store: graph %q: WAL unavailable (store closed or failed)", name)
	}
	if expectStart >= 0 && gl.seq != uint64(expectStart) {
		return 0, fmt.Errorf("store: graph %q: batch starts at seq %d but the log is at %d: %w",
			name, expectStart, gl.seq, ErrSeqMismatch)
	}
	n, err := appendFrame(gl.wal, kind, recs)
	if err != nil {
		gl.rewindOrFail()
		return 0, err
	}
	if !s.opts.NoSync {
		syncStart := time.Now()
		//lint:allow cfpqlint/lockscope durability protocol: the fsync MUST complete under the per-graph log lock before the append is acknowledged
		if err := gl.wal.Sync(); err != nil {
			// The frame's bytes may or may not have reached disk; either
			// way the caller is told the batch failed, so the frame must
			// not survive to be replayed. Discard it (or fail the log).
			gl.rewindOrFail()
			return 0, err
		}
		s.fsyncs.Add(1)
		if obs := s.fsyncObs.Load(); obs != nil {
			(*obs)(time.Since(syncStart))
		}
	}
	gl.walSize.Add(n)
	gl.apply(walBatch{kind: kind, recs: slices.Clone(recs)}, n)
	s.appends.Add(1)
	s.walWritten.Add(n)
	seq := gl.seq
	s.changed()
	return seq, nil
}

// rewindOrFail discards a partially persisted frame by truncating the WAL
// back to the last acknowledged byte. If even that fails the log is
// closed (fail-stop): stacking new frames after an unacknowledged one
// would make recovery silently discard acknowledged records that follow
// the tear, which is worse than rejecting writes. Callers hold gl.mu.
func (gl *graphLog) rewindOrFail() {
	size := gl.walSize.Load()
	if pos, err := gl.wal.Seek(size, io.SeekStart); err == nil && pos == size {
		if gl.wal.Truncate(size) == nil {
			return
		}
	}
	gl.wal.Close()
	gl.wal = nil
}

// Log is an append handle bound to one graph for library callers that
// address nodes by id: edges are journaled as decimal tokens.
type Log struct {
	s    *Store
	name string
}

// Log returns the append handle for a graph. Attach at most one mutating
// writer per graph: the WAL is a single edge stream and replay assumes one
// interning history.
func (s *Store) Log(name string) *Log { return &Log{s: s, name: name} }

// AppendEdges journals id-addressed edges. The frames are marked as such,
// so replay resolves the endpoints as ids even when a node's *name* is a
// numeral.
func (l *Log) AppendEdges(edges []graph.Edge) error {
	recs := make([]EdgeRecord, len(edges))
	for i, e := range edges {
		if e.From < 0 || e.To < 0 {
			return fmt.Errorf("store: negative node in edge %+v", e)
		}
		recs[i] = EdgeRecord{
			From:  strconv.Itoa(e.From),
			Label: e.Label,
			To:    strconv.Itoa(e.To),
		}
	}
	_, err := l.s.append(l.name, recIDs, recs, -1)
	return err
}

// IndexData is one evaluated index to persist: a closure over the first
// Seq edges of stream Epoch, whose CFPQIDX4 payload Write streams into the
// index file. It is refused unless Epoch is the graph's: an index of a
// replaced graph speaks of another node namespace. Write runs under the
// graph's log lock, and may withdraw the index by returning
// ErrIndexWithdrawn: the save then writes nothing and reports no error.
// Saved, when not nil, is called under the same lock once the file is in
// place.
type IndexData struct {
	Grammar string
	Backend string
	Seq     uint64
	Epoch   uint64
	Write   func(io.Writer) error
	Saved   func()
}

// ErrIndexWithdrawn is what an IndexData's Write returns to withdraw its
// index from a save — the serving layer's, when the grammar was replaced
// while the save waited for the log lock.
var ErrIndexWithdrawn = errors.New("store: index withdrawn")

// Snapshot folds a graph's WAL into a fresh snapshot (see fold) and
// truncates the log; the optional indexes are written alongside. Appends
// to the graph block for the duration, so the snapshot is consistent: it
// covers exactly the records the truncation discards.
func (s *Store) Snapshot(name string, indexes []IndexData) error {
	_, err := s.snapshot(name, indexes, false)
	return err
}

// snapshot is Snapshot, or with ifDue CompactIfDue's fold: that folds
// only when compaction is still due under the log lock, and saves its
// indexes best effort. folded reports whether a snapshot was written.
func (s *Store) snapshot(name string, indexes []IndexData, ifDue bool) (folded bool, err error) {
	gl, err := s.lookup(name)
	if err != nil {
		return false, err
	}
	gl.mu.Lock()
	defer gl.mu.Unlock()
	if ifDue && (!s.oversized(gl) || s.tailNeeded(name, gl.seq, time.Now())) {
		return false, nil
	}
	if gl.wal == nil {
		return false, fmt.Errorf("store: graph %q: store closed", name)
	}
	g, f, err := gl.fold()
	if err != nil {
		return false, err
	}
	var skipped []error // a fold's index saves are best effort
	for _, ix := range indexes {
		if err := s.saveIndexLocked(gl, ix); err != nil {
			if !ifDue {
				return false, err
			}
			skipped = append(skipped, err)
		}
	}
	if err := writeFileAtomic(filepath.Join(gl.dir, "snapshot"), !s.opts.NoSync, func(w io.Writer) error {
		return EncodeSnapshot(w, g, f.Names.ByID(), gl.seq)
	}); err != nil {
		return false, err
	}
	//lint:allow cfpqlint/lockscope compaction swaps the WAL under the per-graph log lock; appends must not interleave with the truncate
	if err := gl.wal.Truncate(0); err != nil {
		return false, err
	}
	if _, err := gl.wal.Seek(0, io.SeekStart); err != nil {
		return false, err
	}
	if !s.opts.NoSync {
		//lint:allow cfpqlint/lockscope compaction fsync, same protocol: the truncated WAL must be durable before new appends are accepted
		if err := gl.wal.Sync(); err != nil {
			return false, err
		}
	}
	gl.baseSeq = gl.seq
	gl.tail = nil
	gl.walSize.Store(0)
	gl.snapTime = time.Now()
	s.snapshots.Add(1)
	// Followers parked on the truncated tail wake, see their position fall
	// behind the new base and re-bootstrap from the fresh snapshot.
	s.changed()
	return true, errors.Join(skipped...)
}

// Compact is Snapshot without fresh index data: the WAL is folded into
// the graph snapshot and existing index files stay as they are (recovery
// repairs indexes whose watermark predates the new snapshot base).
func (s *Store) Compact(name string) error {
	err := s.Snapshot(name, nil)
	if err == nil {
		s.compactions.Add(1)
	}
	return err
}

// CompactIfDue is Snapshot when compaction is due: the WAL is above
// Options.CompactBytes AND no live follower reservation trails its head.
// A reservation not refreshed for Options.RetainFor has expired, and its
// follower re-bootstraps from the snapshot; Compact and Snapshot ignore
// reservations. The rule is checked first outside the fold — a WAL under
// the threshold costs no log lock and no call of indexes — and again under
// the fold's log lock, so callers that see the same oversized WAL fold it
// once. indexes, when not nil, lists the graph's indexes to save beside
// the fold, as Snapshot's are (a checkpoint: a warm start then patches
// only what was written since); it is called only once the fold is due,
// before the log lock is taken, so it may take locks of its own that a
// writer holds while it appends. Unlike Snapshot's, an index that fails
// to save is skipped and keeps its previous file: the fold goes on, and
// its error is returned with folded true. folded reports whether this
// call folded the log.
func (s *Store) CompactIfDue(name string, indexes func() []IndexData) (folded bool, err error) {
	gl, err := s.lookup(name)
	if err != nil || !s.oversized(gl) {
		return false, err
	}
	if head, _, err := s.GraphPos(name); err != nil || s.tailNeeded(name, head, time.Now()) {
		return false, err
	}
	var ixs []IndexData
	if indexes != nil {
		ixs = indexes()
	}
	if folded, err = s.snapshot(name, ixs, true); folded {
		s.compactions.Add(1)
	}
	return folded, err
}

// oversized reports whether a graph's WAL has outgrown Options.CompactBytes.
func (s *Store) oversized(gl *graphLog) bool {
	return s.opts.CompactBytes > 0 && gl.walSize.Load() > s.opts.CompactBytes
}

// tailNeeded reports whether a live reservation still trails the head of
// the graph's stream; expired reservations are pruned as a side effect.
func (s *Store) tailNeeded(name string, headSeq uint64, now time.Time) bool {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	needed := false
	for id, r := range s.reservations[name] {
		if now.Sub(r.seen) > s.opts.RetainFor {
			delete(s.reservations[name], id)
			continue
		}
		if r.seq < headSeq {
			needed = true
		}
	}
	return needed
}

// ReserveTail records a follower's replication position on a graph.
// CompactIfDue retains WAL records past seq while the reservation
// is fresh (Options.RetainFor); followers refresh it with every poll.
func (s *Store) ReserveTail(name, follower string, seq uint64) {
	if follower == "" {
		return
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	m := s.reservations[name]
	if m == nil {
		m = map[string]reservation{}
		s.reservations[name] = m
	}
	m[follower] = reservation{seq: seq, seen: time.Now()}
}

// FollowerInfo is one follower's reservation, for replication status.
type FollowerInfo struct {
	ID         string  `json:"id"`
	Graph      string  `json:"graph"`
	AckedSeq   uint64  `json:"acked_seq"`
	AgeSeconds float64 `json:"age_seconds"`
}

// TailReservations lists live follower reservations across all graphs,
// sorted by (graph, follower id). Expired entries are pruned.
func (s *Store) TailReservations() []FollowerInfo {
	now := time.Now()
	s.resMu.Lock()
	defer s.resMu.Unlock()
	var out []FollowerInfo
	for name, m := range s.reservations {
		for id, r := range m {
			if now.Sub(r.seen) > s.opts.RetainFor {
				delete(m, id)
				continue
			}
			out = append(out, FollowerInfo{ID: id, Graph: name, AckedSeq: r.seq, AgeSeconds: now.Sub(r.seen).Seconds()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Graph != out[j].Graph {
			return out[i].Graph < out[j].Graph
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// changed wakes everything parked on Changed().
func (s *Store) changed() {
	s.watchMu.Lock()
	close(s.watchCh)
	s.watchCh = make(chan struct{})
	s.watchMu.Unlock()
}

// Changed returns a channel closed at the next store change — a WAL
// append, snapshot, graph creation or grammar save. Long-poll handlers
// park on it instead of busy-polling; after it fires, call again for the
// next generation.
func (s *Store) Changed() <-chan struct{} {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return s.watchCh
}

// ConfigVersion counts registry changes (graphs created or replaced,
// grammars saved) this session. Replication polls carry it so followers
// notice registry drift and re-sync their manifest; it intentionally
// resets across restarts — a spurious re-sync is idempotent and cheap.
func (s *Store) ConfigVersion() uint64 { return s.configVersion.Load() }

// GraphPos returns a graph's current edge-stream position together with
// the stream's epoch — the pair replication positions are expressed in.
func (s *Store) GraphPos(name string) (seq, epoch uint64, err error) {
	gl, err := s.lookup(name)
	if err != nil {
		return 0, 0, err
	}
	gl.mu.Lock()
	defer gl.mu.Unlock()
	return gl.seq, gl.epoch, nil
}

// mintEpoch produces a fresh edge-stream identity. Wall-clock nanoseconds
// are unique enough here: two epochs only need to differ when one graph
// replaces another, which cannot happen twice in the same nanosecond.
func mintEpoch() uint64 { return uint64(time.Now().UnixNano()) }

// readEpochFile loads a graph directory's persisted stream identity.
func readEpochFile(gdir string) (uint64, bool) {
	raw, err := os.ReadFile(filepath.Join(gdir, "epoch"))
	if err != nil {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v, true
}

func writeEpochFile(gdir string, epoch uint64, sync bool) error {
	return writeFileAtomic(filepath.Join(gdir, "epoch"), sync, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", epoch)
		return err
	})
}

// TailSince returns up to maxBytes worth of WAL batches after seq, the
// graph's current head seq, and the tail bytes remaining beyond the
// returned batches. ok is false when the position cannot be served — seq
// predates the snapshot base (compacted away), overshoots the head (the
// graph was replaced), or splits a batch — and the caller must re-bootstrap
// from a snapshot instead of silently diverging. maxBytes ≤ 0 means
// unbounded; at least one batch is always returned when any is pending.
// The batches are the log's own: read them, do not modify them.
func (s *Store) TailSince(name string, seq uint64, maxBytes int64) (batches []TailBatch, headSeq uint64, remainingBytes int64, ok bool) {
	gl, err := s.lookup(name)
	if err != nil {
		return nil, 0, 0, false
	}
	gl.mu.Lock()
	defer gl.mu.Unlock()
	if seq < gl.baseSeq || seq > gl.seq {
		return nil, gl.seq, 0, false
	}
	start := -1
	for i, b := range gl.tail {
		batchStart := b.Seq - uint64(len(b.Recs))
		if batchStart == seq {
			start = i
			break
		}
		if batchStart > seq {
			// seq falls inside a batch: frames are atomic, so this position
			// was never a valid stream point.
			return nil, gl.seq, 0, false
		}
	}
	if start < 0 {
		if seq != gl.seq {
			return nil, gl.seq, 0, false
		}
		return nil, gl.seq, 0, true // caught up
	}
	var taken int64
	i := start
	for ; i < len(gl.tail); i++ {
		if i > start && maxBytes > 0 && taken+gl.tail[i].Bytes > maxBytes {
			break // the stream is contiguous: nothing after the first cut ships
		}
		taken += gl.tail[i].Bytes
	}
	batches = gl.tail[start:i:i] // capped: the log's later appends stay out of view
	for ; i < len(gl.tail); i++ {
		remainingBytes += gl.tail[i].Bytes
	}
	return batches, gl.seq, remainingBytes, true
}

// SaveIndex is SaveIndexFrom for CFPQIDX4 payload bytes already in memory,
// saved under the epoch GraphPos reports.
func (s *Store) SaveIndex(graphName, grammarName, backend string, seq uint64, data []byte) error {
	_, epoch, err := s.GraphPos(graphName)
	if err != nil {
		return err
	}
	return s.SaveIndexFrom(graphName, IndexData{Grammar: grammarName, Backend: backend, Seq: seq, Epoch: epoch, Write: func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}})
}

// SaveIndexFrom persists one evaluated index of a graph (see IndexData):
// ix.Write streams its CFPQIDX4 payload (core.Index.WriteTo) into a temp
// file that replaces the previous index file only once complete — a
// failed write leaves that file as it was. The epoch is checked and the
// payload written under the graph's log lock, so a replacement cannot land
// between the two; ix.Write must not call back into the store.
func (s *Store) SaveIndexFrom(graphName string, ix IndexData) error {
	gl, err := s.lookup(graphName)
	if err != nil {
		return err
	}
	gl.mu.Lock()
	defer gl.mu.Unlock()
	return s.saveIndexLocked(gl, ix)
}

func (s *Store) saveIndexLocked(gl *graphLog, ix IndexData) error {
	if s.closed.Load() {
		return errClosed
	}
	if ix.Epoch != gl.epoch {
		return fmt.Errorf("store: graph %q: index %s@%s was built on stream epoch %d, the graph's is %d",
			gl.name, ix.Grammar, ix.Backend, ix.Epoch, gl.epoch)
	}
	dir := filepath.Join(gl.dir, indexesDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, encodeName(ix.Grammar)+"@"+ix.Backend+indexExt)
	err := writeFileAtomic(path, !s.opts.NoSync, func(w io.Writer) error {
		return writeIndexFile(w, ix.Seq, ix.Write)
	})
	if err == nil && ix.Saved != nil {
		ix.Saved()
	}
	if errors.Is(err, ErrIndexWithdrawn) {
		return nil
	}
	return err
}

// DropGrammarIndexes removes every saved index built for the named
// grammar, across all graphs. A serving layer calls this when a grammar is
// replaced: the old indexes' relations would otherwise warm-start under
// the new grammar's name if the non-terminal sets happen to match.
func (s *Store) DropGrammarIndexes(grammarName string) error {
	if s.closed.Load() {
		return errClosed
	}
	s.mu.Lock()
	logs := make([]*graphLog, 0, len(s.graphs))
	for _, gl := range s.graphs {
		logs = append(logs, gl)
	}
	s.mu.Unlock()
	prefix := encodeName(grammarName) + "@"
	var first error
	for _, gl := range logs {
		gl.mu.Lock()
		entries, err := os.ReadDir(filepath.Join(gl.dir, indexesDir))
		if err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
		for _, ent := range entries {
			if strings.HasPrefix(ent.Name(), prefix) && strings.HasSuffix(ent.Name(), indexExt) {
				if err := os.Remove(filepath.Join(gl.dir, indexesDir, ent.Name())); err != nil && first == nil {
					first = err
				}
			}
		}
		gl.mu.Unlock()
	}
	return first
}

// SaveGrammar persists a registered grammar's text.
func (s *Store) SaveGrammar(name, text string) error {
	if name == "" {
		return fmt.Errorf("store: empty grammar name")
	}
	if s.closed.Load() {
		return errClosed
	}
	path := filepath.Join(s.dir, grammarsDir, encodeName(name)+grammarExt)
	if err := writeFileAtomic(path, !s.opts.NoSync, func(w io.Writer) error {
		_, err := io.WriteString(w, text)
		return err
	}); err != nil {
		return err
	}
	s.configVersion.Add(1)
	s.changed()
	return nil
}

// Grammars returns every persisted grammar, name → source text.
func (s *Store) Grammars() (map[string]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, grammarsDir))
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), grammarExt) {
			continue
		}
		name, err := decodeName(strings.TrimSuffix(ent.Name(), grammarExt))
		if err != nil {
			return nil, err
		}
		raw, err := os.ReadFile(filepath.Join(s.dir, grammarsDir, ent.Name()))
		if err != nil {
			return nil, err
		}
		out[name] = string(raw)
	}
	return out, nil
}

// GraphNames lists recovered graphs, sorted.
func (s *Store) GraphNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Fold is what GraphState recovers beside a graph and its seq.
type Fold struct {
	Names   *graph.Names // the caller's to keep: recovery hands it to the registry
	BaseSeq uint64       // the seq the snapshot covers
	Epoch   uint64       // the stream's identity
	Tail    []graph.Edge // the id-resolved edges of (BaseSeq, seq], in journal order
}

// GraphState folds a graph from the store's files (see fold) into a fresh
// graph owned by the caller; a damaged snapshot is an error.
func (s *Store) GraphState(name string) (*graph.Graph, Fold, uint64, error) {
	gl, err := s.lookup(name)
	if err != nil {
		return nil, Fold{}, 0, err
	}
	gl.mu.Lock()
	defer gl.mu.Unlock()
	g, f, err := gl.fold()
	if err != nil {
		return nil, Fold{}, 0, err
	}
	return g, f, gl.seq, nil
}

// IndexInfo names one saved index and its seq watermark.
type IndexInfo struct {
	Graph   string
	Grammar string
	Backend string
	Seq     uint64
}

// Indexes lists the saved indexes of a graph, sorted by (grammar,
// backend). Only the fixed-size header (magic + seq) of each file is
// read — payload CRC validation happens at LoadIndex — so the listing
// stays cheap no matter how large the indexes are. Files with unreadable
// headers are skipped: a lost index only costs a rebuild.
func (s *Store) Indexes(name string) []IndexInfo {
	gl, err := s.lookup(name)
	if err != nil {
		return nil
	}
	return indexInfos(gl)
}

// indexInfos reads the index directory without gl.mu — it touches only the
// log's immutable name and dir, and index files appear by atomic rename —
// so a listing never makes a WAL append wait for file I/O.
func indexInfos(gl *graphLog) []IndexInfo {
	entries, err := os.ReadDir(filepath.Join(gl.dir, indexesDir))
	if err != nil {
		return nil
	}
	var out []IndexInfo
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), indexExt) {
			continue
		}
		base := strings.TrimSuffix(ent.Name(), indexExt)
		at := strings.LastIndex(base, "@")
		if at < 0 {
			continue
		}
		gname, err := decodeName(base[:at])
		if err != nil {
			continue
		}
		seq, err := readFileHead(filepath.Join(gl.dir, indexesDir, ent.Name()), indexFileMagic, "index file", false)
		if err != nil {
			continue
		}
		out = append(out, IndexInfo{Graph: gl.name, Grammar: gname, Backend: base[at+1:], Seq: seq})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Grammar != out[j].Grammar {
			return out[i].Grammar < out[j].Grammar
		}
		return out[i].Backend < out[j].Backend
	})
	return out
}

// LoadIndex reads one saved index, validated against the CNF it was built
// for and materialised with the given backend (nil means the backend
// recorded in the CFPQIDX4 payload), decoding the payload in place
// (core.DecodeIndex). The returned seq is the edge-stream position the
// index covers.
func (s *Store) LoadIndex(info IndexInfo, cnf *grammar.CNF, be matrix.Backend) (*core.Index, uint64, error) {
	gl, err := s.lookup(info.Graph)
	if err != nil {
		return nil, 0, err
	}
	gl.mu.Lock()
	path := filepath.Join(gl.dir, indexesDir, encodeName(info.Grammar)+"@"+info.Backend+indexExt)
	raw, err := os.ReadFile(path)
	gl.mu.Unlock()
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("store: index %s@%s for graph %q: %w", info.Grammar, info.Backend, info.Graph, ErrNotFound)
		}
		return nil, 0, err
	}
	seq, payload, err := checkFile(raw, indexFileMagic, "index file")
	if err != nil {
		return nil, 0, err
	}
	ix, err := core.DecodeIndex(payload, cnf, be)
	if err != nil {
		return nil, 0, err
	}
	return ix, seq, nil
}

// GraphStats describes one graph's durable state.
type GraphStats struct {
	Graph    string `json:"graph"`
	Seq      uint64 `json:"seq"`
	BaseSeq  uint64 `json:"base_seq"`
	WALBytes int64  `json:"wal_bytes"`
	// SnapshotAgeSeconds is the age of the on-disk snapshot file.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	Indexes            int     `json:"indexes"`
}

// Stats summarises the store.
type Stats struct {
	Dir      string       `json:"dir"`
	Graphs   []GraphStats `json:"graphs"`
	Grammars int          `json:"grammars"`
	// Appends counts WAL batches written this session; WALBytes the bytes
	// across all live WALs; WALWritten the bytes written this session;
	// WALFsyncs the fsyncs issued for WAL appends this session.
	Appends    int64 `json:"appends"`
	WALBytes   int64 `json:"wal_bytes"`
	WALWritten int64 `json:"wal_written"`
	WALFsyncs  int64 `json:"wal_fsyncs"`
	// Snapshots and Compactions count snapshot writes this session
	// (compactions are the Compact and CompactIfDue subset).
	Snapshots   int64 `json:"snapshots"`
	Compactions int64 `json:"compactions"`
	// ReplayedRecords and RecoveredBytes report Open-time recovery work:
	// WAL records replayed, and torn tail bytes truncated.
	ReplayedRecords int64 `json:"replayed_records"`
	RecoveredBytes  int64 `json:"recovered_bytes"`
}

// Stats snapshots the store's statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	logs := make([]*graphLog, 0, len(s.graphs))
	for _, gl := range s.graphs {
		logs = append(logs, gl)
	}
	s.mu.Unlock()
	st := Stats{
		Dir:             s.dir,
		Appends:         s.appends.Load(),
		WALWritten:      s.walWritten.Load(),
		WALFsyncs:       s.fsyncs.Load(),
		Snapshots:       s.snapshots.Load(),
		Compactions:     s.compactions.Load(),
		ReplayedRecords: s.replayed.Load(),
		RecoveredBytes:  s.recovered.Load(),
	}
	now := time.Now()
	for _, gl := range logs {
		gl.mu.Lock()
		gs := GraphStats{
			Graph:              gl.name,
			Seq:                gl.seq,
			BaseSeq:            gl.baseSeq,
			WALBytes:           gl.walSize.Load(),
			SnapshotAgeSeconds: now.Sub(gl.snapTime).Seconds(),
		}
		gl.mu.Unlock()
		gs.Indexes = len(indexInfos(gl))
		st.Graphs = append(st.Graphs, gs)
		st.WALBytes += gs.WALBytes
	}
	sort.Slice(st.Graphs, func(i, j int) bool { return st.Graphs[i].Graph < st.Graphs[j].Graph })
	if entries, err := os.ReadDir(filepath.Join(s.dir, grammarsDir)); err == nil {
		for _, ent := range entries {
			if !ent.IsDir() && strings.HasSuffix(ent.Name(), grammarExt) {
				st.Grammars++
			}
		}
	}
	return st
}

// WALCounters returns the session's WAL write counters — appended
// batches, bytes written, fsyncs issued — without touching any per-graph
// lock or the filesystem, so metrics endpoints can poll them freely.
func (s *Store) WALCounters() (appends, bytesWritten, fsyncs int64) {
	return s.appends.Load(), s.walWritten.Load(), s.fsyncs.Load()
}

// WALBytes returns the bytes across all live WALs (Stats().WALBytes), read
// like WALCounters: no per-graph lock, no filesystem.
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, gl := range s.graphs {
		total += gl.walSize.Load()
	}
	return total
}

// errClosed is what a write to a closed store returns.
var errClosed = errors.New("store: closed")

// Close closes every WAL and marks the store closed: graph creation,
// grammar saves, index saves and drops fail from then on (appends already
// do, their WALs being closed). Reads of what is on disk keep working.
func (s *Store) Close() error {
	// The logs are closed outside mu: CreateGraphAt takes a log's lock
	// before mu, and registers nothing once closed is set.
	s.mu.Lock()
	s.closed.Store(true)
	logs := slices.Collect(maps.Values(s.graphs))
	s.mu.Unlock()
	var first error
	for _, gl := range logs {
		gl.mu.Lock()
		if gl.wal != nil {
			if err := gl.wal.Close(); err != nil && first == nil {
				first = err
			}
			gl.wal = nil
		}
		gl.mu.Unlock()
	}
	return first
}

package server

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"cfpq"
	"cfpq/internal/matrix"
	"cfpq/internal/store"
)

// Persistent mode: a Service with an attached store.Store survives
// restarts. Every mutation is teed into the store write-ahead — graph
// registrations become snapshots, grammar registrations become grammar
// files, AddEdges batches become fsynced WAL records — and every closure
// the service builds for a registry grammar is saved as an index file with
// the edge-stream position (seq) it covers (an RPQ expression's slot is
// not: it is rebuilt on demand). AttachStore runs the other direction: it
// warm-starts an empty service from the recovered store, restoring the
// registry and rebuilding every saved index as a live Prepared handle
// without running a single closure — indexes whose watermark is behind
// the recovered edge stream are patched forward with the incremental
// delta closure instead.

// AttachStore wires a recovered store into an empty service and
// warm-starts from it: grammars and graphs are restored into the
// registry, and every loadable saved index becomes a built cache entry
// whose Prepared handle was constructed from the file (Build stats zero —
// no closure ran). After AttachStore returns, all subsequent mutations
// persist through the store.
//
// Index files that fail to load or to patch (corrupt payload, grammar
// gone or re-registered with other non-terminals, unknown backend) are
// skipped, not fatal: a lost index only costs a rebuild on first query.
// Damaged graph state, by contrast, is an error — serving silently
// without a registered graph would turn restarts into data loss.
func (s *Service) AttachStore(ctx context.Context, st *store.Store) error {
	s.mu.Lock()
	if s.store != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: store already attached")
	}
	if len(s.graphs) != 0 || len(s.grammars) != 0 {
		s.mu.Unlock()
		return fmt.Errorf("server: AttachStore requires an empty service")
	}
	s.mu.Unlock()

	grammars, err := st.Grammars()
	if err != nil {
		return fmt.Errorf("server: reading stored grammars: %w", err)
	}
	names := make([]string, 0, len(grammars))
	for name := range grammars {
		names = append(names, name)
	}
	sort.Strings(names)
	// No store is attached yet, so the two installs below write nothing
	// back to the files they are restoring from.
	for _, name := range names {
		if err := s.registerGrammar(name, grammars[name]); err != nil {
			return fmt.Errorf("server: stored grammar %q: %w", name, err)
		}
	}

	for _, name := range st.GraphNames() {
		// One fold per graph: the registry keeps the graph and its name
		// table, the warm starts patch from its tail, and the persisted
		// epoch lets a restarted follower resume the leader stream it left.
		g, fold, seq, err := st.GraphState(name)
		if err != nil {
			return fmt.Errorf("server: restoring graph %q: %w", name, err)
		}
		if err := s.installGraph(name, g, fold.Names, seq, fold.Epoch); err != nil {
			return err
		}
		for _, info := range st.Indexes(name) {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.warmStartIndex(ctx, st, info, fold)
		}
	}

	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
	// From here every AddEdges fsync feeds the latency histogram behind
	// GET /metrics.
	st.SetFsyncObserver(func(d time.Duration) {
		s.obs.walFsync.Observe(d.Seconds())
	})
	return nil
}

// warmStartIndex restores one saved index as a built cache entry,
// patching it forward from fold's tail when the file's watermark is
// behind. The slot is its backend's canonical one (see Target.key), so a
// file saved under a retired backend name restores the slot its kernel's
// queries read — unless another file already did: the store lists the
// canonical name, where every save now goes, first.
// Failures are silent skips (see AttachStore).
func (s *Service) warmStartIndex(ctx context.Context, st *store.Store, info store.IndexInfo, fold store.Fold) {
	warmStart := time.Now()
	be, err := cfpq.BackendByName(info.Backend)
	if err != nil {
		return
	}
	key := IndexKey{Graph: info.Graph, Grammar: info.Grammar, Backend: be.Name()}
	s.mu.Lock()
	ge, re, restored := s.graphs[info.Graph], s.grammars[info.Grammar], s.indexes[key] != nil
	s.mu.Unlock()
	if ge == nil || re == nil || restored {
		return
	}
	mbe, ok := matrix.BackendByName(info.Backend)
	if !ok {
		return
	}
	ix, seq, err := st.LoadIndex(info, re.cnf, mbe)
	if err != nil {
		return
	}
	filed := entries(ix.Counts())
	eng := s.engine(be)
	v := ge.cur.Load()
	if seq < v.seq {
		// The index is behind the recovered edge stream. If the WAL still
		// holds the tail, patch exactly the missing edges; if compaction
		// folded them into the snapshot, repair by re-seeding the delta
		// closure with the full edge set — idempotent for everything the
		// index already covers, and still no from-scratch closure.
		tail := v.g.Edges()
		if seq >= fold.BaseSeq {
			tail = fold.Tail[seq-fold.BaseSeq:]
		}
		if _, err := eng.Update(ctx, ix, tail...); err != nil {
			return
		}
	} else if seq > v.seq {
		// The index claims edges the recovered stream does not have — a
		// snapshot/WAL mismatch (e.g. hand-edited files). Unsound to
		// serve; let the first query rebuild.
		return
	}
	// The handle binds the published version as it is (see the package
	// comment).
	p, err := eng.PrepareFromIndex(v.g, re.cnf, ix)
	if err != nil {
		return
	}
	e := &indexEntry{key: key, ge: ge, p: p}
	e.ready.Store(p)
	// What the replay derived counts toward the slot's next checkpoint.
	e.filed.Store(filed)
	e.derived.Store(int64(p.Stats().Entries) - filed)
	s.mu.Lock()
	s.indexes[key] = e
	s.mu.Unlock()
	s.obs.warmStarts.Inc()
	s.obs.warmStart.Observe(time.Since(warmStart).Seconds())
}

// persistIndex saves a freshly built index to the attached store, best
// effort: persistence is an optimization (the next snapshot retries), so
// failures only tick a counter. v is the graph version the build bound,
// whose seq the file is saved under; the saved file may contain
// consequences of later patches, which is sound — recovery
// re-applies the tail and re-applying present bits is a no-op. An index
// whose graph or grammar was replaced during the build is not saved, or it
// would warm-start against the replacement: the registry check skips it,
// the store refuses one whose graph was replaced after (the epoch), and
// indexData withdraws one whose grammar was.
func (s *Service) persistIndex(e *indexEntry, re *grammarEntry, v *graphVersion, p *cfpq.Prepared) {
	if s.store == nil {
		return
	}
	key := e.key
	s.mu.Lock()
	current := s.graphs[key.Graph] == e.ge && s.grammars[key.Grammar] == re
	s.mu.Unlock()
	if !current {
		return
	}
	if err := s.store.SaveIndexFrom(key.Graph, s.indexData(e, re, v.seq, v.epoch, p, "build")); err != nil {
		s.obs.persistErrors.Inc()
	}
}

// indexData saves the index p holds of re's slot e at seq and epoch, for
// cause (a label of cfpqd_index_saves_total). Its Write withdraws the index
// once re is retired: it runs under the graph's log lock, which a
// replacement's drop of the grammar's files takes too, so a save that
// reaches the lock after the drop writes no file, whatever its caller
// checked before. A save that lands takes the slot's count as it began off
// the count; pairs patched in after still count, held in the file or not.
func (s *Service) indexData(e *indexEntry, re *grammarEntry, seq, epoch uint64, p *cfpq.Prepared, cause string) store.IndexData {
	var derived, filed int64
	return store.IndexData{Grammar: e.key.Grammar, Backend: e.key.Backend, Seq: seq, Epoch: epoch,
		Write: func(w io.Writer) error {
			if re.retired.Load() {
				return store.ErrIndexWithdrawn
			}
			// Counted before the write pins its version, which holds them.
			derived, filed = e.derived.Load(), int64(p.Stats().Entries)
			return p.WriteIndex(w)
		},
		Saved: func() {
			e.derived.Add(-derived)
			e.filed.Store(filed)
			s.obs.indexSaves.With(cause).Inc()
		},
	}
}

// entries sums a relation count map (Index.Counts).
func entries(counts map[string]int) (n int64) {
	for _, c := range counts {
		n += int64(c)
	}
	return n
}

// Snapshot folds the named graph's WAL into a fresh snapshot together
// with every built index on it, so the next restart warm-starts with no
// replay and no patching. An empty name snapshots every graph.
func (s *Service) Snapshot(graphName string) error {
	if s.store == nil {
		return fmt.Errorf("server: no store attached")
	}
	s.mu.Lock()
	var names []string
	for n, e := range s.graphs {
		// A new name is not snapshotted before its install has returned.
		if (graphName == "" || n == graphName) && e.cur.Load() != nil {
			names = append(names, n)
		}
	}
	s.mu.Unlock()
	if graphName != "" && len(names) == 0 {
		return notFoundf("server: unknown graph %q", graphName)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.snapshotGraph(name); err != nil {
			return err
		}
	}
	return nil
}

func (s *Service) snapshotGraph(name string) error {
	ge, indexes := s.savedIndexes(name, "snapshot", nil)
	if ge == nil {
		return notFoundf("server: unknown graph %q", name)
	}
	// A graph replaced since we captured ge would receive index files
	// from the old graph's node namespace; skip — the replacement was
	// snapshotted by its own registration (and the store refuses the
	// indexes of one replaced after this check: the epoch).
	s.mu.Lock()
	current := s.graphs[name] == ge
	s.mu.Unlock()
	if !current {
		return nil
	}
	return storeFault(s.store.Snapshot(name, indexes))
}

// foldIndexes is the index list a WAL fold saves beside the snapshot
// (store.CompactIfDue), so that the fold is a checkpoint: a warm start
// after it patches only what was written since, not every edge.
func (s *Service) foldIndexes(name string) func() []store.IndexData {
	return func() []store.IndexData { _, indexes := s.savedIndexes(name, "fold", nil); return indexes }
}

// checkpoint saves, at the graph's watermark, every built grammar slot
// whose pairs derived since its index file exceed a quarter of the pairs
// in that file, so that a restart replays at most that quarter whatever
// the writers' pace: a checkpoint by redo work, ARIES's reason to take
// one (Mohan et al., ACM TODS 1992). It runs after a batch's patch, holding
// no lock, and is best effort, as a fold's saves are: a failed save ticks
// persistErrors and keeps the previous file. The WAL is not folded: a warm
// start replays only the records past a file's watermark.
func (s *Service) checkpoint(name string) {
	_, indexes := s.savedIndexes(name, "checkpoint", (*indexEntry).due)
	for _, ix := range indexes {
		if err := s.store.SaveIndexFrom(name, ix); err != nil {
			s.obs.persistErrors.Inc()
		}
	}
}

// savedIndexes returns the named graph's entry and what saves its built
// grammar slots for cause: the data of each slot with a ready handle that
// due, when not nil, accepts. Expr slots are derived data, rebuilt on
// demand, and never saved.
func (s *Service) savedIndexes(name, cause string, due func(*indexEntry) bool) (*graphEntry, []store.IndexData) {
	type slot struct {
		e  *indexEntry
		re *grammarEntry
	}
	s.mu.Lock()
	ge := s.graphs[name]
	var slots []slot
	for k, e := range s.indexes {
		if k.Graph == name && k.Expr == "" && e.ge == ge {
			// The registry drops a grammar's slots as it swaps the grammar:
			// a slot it holds is of the grammar it names.
			slots = append(slots, slot{e, s.grammars[k.Grammar]})
		}
	}
	s.mu.Unlock()
	if ge == nil || ge.cur.Load() == nil {
		return nil, nil
	}

	// The watermark comes first, and is ge.indexed rather than the version's
	// seq: a batch publishes before its patch has run the update closure,
	// and WriteIndex does not wait for a patch — it serialises the version
	// published before it. Saved under seq, such a file would claim edges
	// its bytes never saw, and a restart would serve it unpatched for good.
	// Every handle found ready from here on covers at least ge.indexed; what
	// it holds beyond that is extra consequences under an understated
	// watermark, which recovery re-applies idempotently.
	seq, epoch := ge.indexed.Load(), ge.cur.Load().epoch
	var indexes []store.IndexData
	for _, sl := range slots {
		if p := sl.e.ready.Load(); p != nil && (due == nil || due(sl.e)) { // else unbuilt, stale or not due
			indexes = append(indexes, s.indexData(sl.e, sl.re, seq, epoch, p, cause))
		}
	}
	return ge, indexes
}

// StoreStats reports the attached store's statistics; ok is false when
// the service runs purely in memory.
func (s *Service) StoreStats() (store.Stats, bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}

// Persistent reports whether a store is attached.
func (s *Service) Persistent() bool { return s.store != nil }

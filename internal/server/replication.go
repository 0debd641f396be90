package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"cfpq/internal/graph"
	"cfpq/internal/replica"
	"cfpq/internal/store"
)

// Replication wiring. A Service plays either side:
//
//   - Leader: any Service with an attached store. ReplicaManifest,
//     ReplicaGraphSnapshot and ReplicaTail expose the store's WAL tail to
//     followers (the HTTP layer serves them under /v1/replica/...).
//   - Follower: a Service with the write gate on (SetReadOnly) whose
//     replica.Replicator applies the leader's stream through the Applier
//     methods below — the same write-ahead + incremental delta-patch path
//     AddEdges uses, so a follower never runs a cold closure to absorb
//     replicated writes.
//
// A durable follower re-journals every replicated frame into its own WAL
// with the leader's record kind, and the journal encodes a batch one way,
// so its WAL holds the leader's bytes over the same seq range and
// followers are chainable.

// ErrSnapshotNeeded marks a tail request the leader cannot serve from its
// WAL — the position was compacted away, overshoots the head, splits a
// batch, or names a dead epoch. The HTTP layer maps it to 410 Gone and the
// follower re-bootstraps from a fresh snapshot.
var ErrSnapshotNeeded = errors.New("server: WAL tail unavailable; bootstrap from a fresh snapshot")

// SetReplication attaches the follower's replicator so the HTTP layer can
// serve /v1/replication/status, /readyz and /v1/promote.
func (s *Service) SetReplication(rep *replica.Replicator) { s.replication.Store(rep) }

// SetReadinessMaxLag bounds the staleness (in records behind the leader)
// up to which /readyz still reports this follower routable; 0 accepts any
// finite lag as long as the stream is live.
func (s *Service) SetReadinessMaxLag(records uint64) { s.readinessMaxLag.Store(records) }

// Promote detaches this follower from its leader: the replication stream
// drains and stops, the write gate opens, and the node serves writes as a
// leader from its consistent prefix of the old leader's stream.
func (s *Service) Promote(ctx context.Context) (replica.Status, error) {
	rc := s.replication.Load()
	if rc == nil {
		return replica.Status{}, errors.New("server: this node is not a follower")
	}
	if err := rc.Promote(ctx); err != nil {
		return rc.Status(), err
	}
	s.SetReadOnly(false)
	return rc.Status(), nil
}

// ReplicationStatus assembles the /v1/replication/status payload for
// whichever role this node plays: a follower reports its stream status
// (replica.Status), a leader its graphs' stream positions and attached
// followers, a store-less standalone node just its role. A promoted
// follower reports as a leader.
func (s *Service) ReplicationStatus() any {
	promoted := false
	if rc := s.replication.Load(); rc != nil {
		st := rc.Status()
		if st.State != replica.StatePromoted {
			return st
		}
		promoted = true
	}
	out := map[string]any{"role": "standalone"}
	if promoted {
		out["promoted"] = true
	}
	st := s.store
	if st == nil {
		return out
	}
	out["role"] = "leader"
	out["config_version"] = st.ConfigVersion()
	graphs := []replica.GraphMeta{}
	for _, name := range st.GraphNames() {
		if seq, epoch, err := st.GraphPos(name); err == nil {
			graphs = append(graphs, replica.GraphMeta{Name: name, Seq: seq, Epoch: epoch})
		}
	}
	out["graphs"] = graphs
	out["followers"] = st.TailReservations()
	return out
}

// Ready is the /readyz predicate: leaders and standalone nodes are always
// ready; a follower is ready while it is actively streaming within the
// configured lag bound (SetReadinessMaxLag). Bootstrapping and degraded
// (leader unreachable beyond StaleAfter) followers report unready so load
// balancers stop routing to them.
func (s *Service) Ready() (bool, map[string]any) {
	rc := s.replication.Load()
	if rc == nil {
		return true, map[string]any{"status": "ready"}
	}
	st := rc.Status()
	if st.State == replica.StatePromoted {
		return true, map[string]any{"status": "ready", "state": st.State}
	}
	maxLag := s.readinessMaxLag.Load()
	if st.Ready(maxLag) {
		return true, map[string]any{"status": "ready", "state": st.State, "lag_records": st.LagRecords}
	}
	detail := map[string]any{
		"status": "unready", "state": st.State,
		"lag_records": st.LagRecords, "max_lag": maxLag,
	}
	if st.Error != "" {
		detail["error"] = st.Error
	}
	return false, detail
}

// --- leader side ------------------------------------------------------

// leaderStore returns the attached store or an error explaining why this
// node cannot serve replication.
func (s *Service) leaderStore() (*store.Store, error) {
	if s.store == nil {
		return nil, errors.New("server: no store attached; start cfpqd with -data-dir to lead")
	}
	return s.store, nil
}

// ReplicaManifest describes this leader's registry for a follower's sync:
// every grammar's text, every graph's stream position and epoch, and the
// config version followers watch for registry drift.
func (s *Service) ReplicaManifest() (*replica.Manifest, error) {
	st, err := s.leaderStore()
	if err != nil {
		return nil, err
	}
	m := &replica.Manifest{ConfigVersion: st.ConfigVersion(), Grammars: map[string]string{}}
	s.mu.Lock()
	for name, e := range s.grammars {
		m.Grammars[name] = e.src
	}
	s.mu.Unlock()
	for _, name := range st.GraphNames() {
		seq, epoch, err := st.GraphPos(name)
		if err != nil {
			continue // deleted between listing and lookup
		}
		m.Graphs = append(m.Graphs, replica.GraphMeta{Name: name, Seq: seq, Epoch: epoch})
	}
	return m, nil
}

// ReplicaGraphSnapshot serialises one graph's bootstrap payload at its
// current stream position from the published version: the version is
// immutable, and the name table only appends, so its first g.Nodes()
// names stay put.
func (s *Service) ReplicaGraphSnapshot(name string) (data []byte, seq, epoch uint64, err error) {
	if _, err := s.leaderStore(); err != nil {
		return nil, 0, 0, err
	}
	ge, err := s.graphEntry(name)
	if err != nil {
		return nil, 0, 0, err
	}
	v := ge.cur.Load()
	g, names, seq, epoch := v.g, ge.names.ByID()[:v.g.Nodes()], v.seq, v.epoch
	var buf bytes.Buffer
	if err := store.EncodeSnapshot(&buf, g, names, seq); err != nil {
		return nil, 0, 0, err
	}
	return buf.Bytes(), seq, epoch, nil
}

// ReplicaTail serves one long-poll of a graph's WAL tail: batches after
// seq `from` of stream `epoch`, waiting up to `wait` for new writes before
// answering an empty page. Each poll refreshes the follower's tail
// reservation, which holds the write path's fold (store.CompactIfDue) away
// from the records it still needs, and then applies that fold's rule
// itself, so a follower keeping up does not hold the WAL back forever
// (Compact/Snapshot called explicitly ignore reservations and lagging
// followers get ErrSnapshotNeeded instead). An unservable
// position — compacted away, past the head, a dead epoch — returns
// ErrSnapshotNeeded; an unknown graph returns ErrNotFound. The batches are
// the store's own: read them, do not modify them.
func (s *Service) ReplicaTail(ctx context.Context, graphName, follower string, from, epoch uint64, wait time.Duration) (*replica.TailResponse, error) {
	st, err := s.leaderStore()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(wait)
	for {
		// Grab the change channel BEFORE inspecting the tail: a write
		// landing between the check and the park then wakes us instead of
		// being missed for a full poll interval.
		changed := st.Changed()
		head, gotEpoch, err := st.GraphPos(graphName)
		if err != nil {
			return nil, notFoundf("server: unknown graph %q", graphName)
		}
		if gotEpoch != epoch {
			return nil, fmt.Errorf("server: graph %q stream epoch is %d, not %d: %w",
				graphName, gotEpoch, epoch, ErrSnapshotNeeded)
		}
		batches, head, remaining, ok := st.TailSince(graphName, from, replica.TailPageBytes)
		if !ok {
			return nil, fmt.Errorf("server: graph %q has no tail at seq %d (head %d): %w",
				graphName, from, head, ErrSnapshotNeeded)
		}
		st.ReserveTail(graphName, follower, from)
		// The batch that crossed -compact-bytes left the fold to whichever
		// follower still trailed it: the poll that reaches the head folds.
		if _, err := st.CompactIfDue(graphName, s.foldIndexes(graphName)); err != nil {
			s.obs.persistErrors.Inc()
		}
		if len(batches) > 0 || wait <= 0 || !time.Now().Before(deadline) {
			return &replica.TailResponse{
				LeaderSeq:      head,
				ConfigVersion:  st.ConfigVersion(),
				RemainingBytes: remaining,
				Batches:        batches,
			}, nil
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-changed:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// --- follower side: the replica.Applier implementation ----------------

// ApplyGrammar installs a replicated grammar, bypassing the follower's
// write gate. Re-applying the text already registered is a no-op, so a
// manifest re-sync does not drop cached indexes built on it.
func (s *Service) ApplyGrammar(name, text string) error {
	s.mu.Lock()
	e := s.grammars[name]
	s.mu.Unlock()
	if e != nil && e.src == text {
		return nil
	}
	return s.registerGrammar(name, text)
}

// BootstrapGraph installs a replicated graph snapshot at the given stream
// position and epoch, replacing any local copy and dropping every cached
// index on it (their node-id namespace died with the old copy). On a
// durable follower the snapshot is persisted via the same write-ahead
// ordering RegisterGraph uses.
func (s *Service) BootstrapGraph(name string, g *graph.Graph, names []string, seq, epoch uint64) error {
	return s.installGraph(name, g, graph.NewNames(g.Nodes(), names), seq, epoch)
}

// GraphPos reports a graph's local stream position and epoch — the pair
// the replicator resumes tailing from.
func (s *Service) GraphPos(name string) (seq, epoch uint64, ok bool) {
	ge, err := s.graphEntry(name)
	if err != nil {
		return 0, 0, false
	}
	v := ge.cur.Load()
	return v.seq, v.epoch, true
}

// ApplyReplicatedEdges applies one WAL batch from the replication stream
// through applyBatch, the path AddEdges takes: journaled write-ahead into
// the follower's own store (durable followers) with the leader's record
// kind, interned into the in-memory graph by the rule the leader applied
// (graph.Names, which the store's fold of its journal applies too), and
// patched into every cached index via the incremental delta closure.
// endSeq is the leader's seq after the batch; a position mismatch returns
// an error wrapping store.ErrSeqMismatch and the replicator re-bootstraps
// instead of diverging.
func (s *Service) ApplyReplicatedEdges(ctx context.Context, graphName string, kind store.RecordKind, recs []store.EdgeRecord, endSeq uint64) error {
	if !kind.Valid() {
		return fmt.Errorf("server: unknown WAL record kind %d", byte(kind))
	}
	if uint64(len(recs)) > endSeq {
		return fmt.Errorf("server: batch of %d records cannot end at seq %d: %w",
			len(recs), endSeq, store.ErrSeqMismatch)
	}
	for _, r := range recs {
		if r.Label == "" || r.From == "" || r.To == "" {
			return fmt.Errorf("server: replicated record %+v has an empty token", r)
		}
	}
	res, err := s.applyBatch(ctx, graphName, kind, recs, true, endSeq)
	if err == nil {
		s.obs.replBatches.Inc()
		s.obs.replEdges.Add(uint64(res.Added))
	}
	return err
}

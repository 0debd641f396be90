// Package replica is the read-replica subsystem: it turns one cfpqd
// process into a follower of another by shipping the leader's write-ahead
// log over HTTP and applying it locally through the same write-ahead +
// incremental delta-patch path a warm start uses — never a cold closure.
//
// # Protocol
//
// The leader (any cfpqd with a durable store) serves three things:
//
//   - GET /v1/replica/snapshot — a JSON manifest: the registry's grammars,
//     every graph with its edge-stream seq, and a config version that
//     changes whenever the registry does.
//   - GET /v1/replica/snapshot?graph=X — a binary, CRC-trailed snapshot of
//     one graph's current state (the store's snapshot format) at the seq
//     named by the X-Cfpq-Seq response header.
//   - GET /v1/replica/wal?graph=X&from=N&epoch=E — a long-poll over the
//     graph's WAL tail: a format byte, then the CRC-framed batches
//     journaled after seq N as the leader's WAL holds them, with the head
//     seq, config version and bytes pending beyond the page in X-Cfpq-*
//     headers; a follower refuses a body of any other format. The
//     epoch pins the edge stream the seq refers to (a graph replacement
//     mints a new epoch). When N was compacted away, overshoots the head,
//     or the epoch no longer matches, the leader answers 410 Gone — the
//     "snapshot required" signal — and the follower re-bootstraps that
//     graph instead of silently diverging.
//
// A follower bootstraps each graph from the snapshot, then tails the WAL
// with retry/backoff, applying every batch write-ahead into its own store
// and patching its cached indexes with the incremental delta closure. The
// follower's own WAL therefore replays the exact frames the leader
// journaled, which also makes followers chainable: a follower with a
// durable store can serve the same replication endpoints to followers of
// its own.
//
// # Staleness
//
// Replication is asynchronous: a follower serves reads at a bounded,
// *measured* staleness, reported per graph as applied seq vs leader seq
// (lag in records), WAL bytes not yet applied (lag in bytes), and the time
// since the follower was last caught up (lag age). Status feeds
// GET /v1/replication/status and /debug/vars; /readyz turns 503 when the
// follower is bootstrapping, has lost its leader, or exceeds a configured
// lag bound, so load balancers stop routing to stale replicas.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cfpq/internal/graph"
	"cfpq/internal/store"
)

// Manifest is the leader's registry description — the JSON body of
// GET /v1/replica/snapshot without a graph parameter.
type Manifest struct {
	// ConfigVersion changes whenever the leader's registry does (graph
	// created or replaced, grammar registered). Followers remember the
	// version they synced and re-sync when a WAL poll reports a new one.
	ConfigVersion uint64 `json:"config_version"`
	// Grammars maps grammar name → source text.
	Grammars map[string]string `json:"grammars"`
	// Graphs lists every graph with its current edge-stream seq.
	Graphs []GraphMeta `json:"graphs"`
}

// GraphMeta names one graph of the manifest. Epoch identifies the graph's
// edge stream: minted when the graph is created (or replaced) and copied
// to followers at bootstrap, it guarantees a seq is never interpreted
// against a different stream — a replaced graph changes epoch even when
// its seq range happens to overlap the old one.
type GraphMeta struct {
	Name  string `json:"name"`
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
}

// TailPageBytes caps a tail page's WAL bytes, but for a single larger
// batch: a lagging follower pages through its backlog.
const TailPageBytes int64 = 4 << 20

// TailResponse is one poll of GET /v1/replica/wal: the batches after the
// poll's seq, plus enough leader state for the follower's staleness math.
type TailResponse struct {
	LeaderSeq     uint64
	ConfigVersion uint64
	// RemainingBytes is the WAL bytes still pending on the leader beyond
	// the batches in this response (the page was cut by the size cap).
	RemainingBytes int64
	Batches        []store.TailBatch
}

// Applier is the local half of replication: the serving layer a follower
// applies the leader's state into. internal/server.Service implements it.
type Applier interface {
	// ApplyGrammar registers a replicated grammar, bypassing the
	// follower's read-only gate. Re-applying an unchanged text must be a
	// no-op (it must NOT drop cached indexes).
	ApplyGrammar(name, text string) error
	// BootstrapGraph installs a replicated graph snapshot (replacing any
	// local copy) at the given edge-stream position and epoch. names maps
	// node id → name ("" = unnamed).
	BootstrapGraph(name string, g *graph.Graph, names []string, seq, epoch uint64) error
	// ApplyReplicatedEdges applies one WAL batch write-ahead: journaled
	// into the follower's own store (when durable) with the original
	// resolution kind, then folded into the in-memory graph and patched
	// into every cached index via the incremental delta closure. endSeq is
	// the leader's seq after the batch; a mismatch with the local position
	// must return an error wrapping store.ErrSeqMismatch.
	ApplyReplicatedEdges(ctx context.Context, graphName string, kind store.RecordKind, recs []store.EdgeRecord, endSeq uint64) error
	// GraphPos reports the local edge-stream position and epoch of a
	// graph, false when the graph is not present locally.
	GraphPos(name string) (seq, epoch uint64, ok bool)
}

// Options tunes a Replicator.
type Options struct {
	// PollWait is the long-poll wait the follower asks the leader for
	// (default 20s). Lower values only add idle round trips.
	PollWait time.Duration
	// Backoff is the initial retry delay after a failed poll or bootstrap
	// (default 250ms); it doubles per consecutive failure up to MaxBackoff
	// (default 5s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// StaleAfter is how long the follower may go without a successful
	// leader response before Status reports the stream degraded (default
	// 10s). Readiness probes turn unready on a degraded stream.
	StaleAfter time.Duration
}

func (o Options) withDefaults() Options {
	if o.PollWait <= 0 {
		o.PollWait = 20 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 250 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.StaleAfter <= 0 {
		o.StaleAfter = 10 * time.Second
	}
	return o
}

// Replication states, coarsest first.
const (
	StateBootstrapping = "bootstrapping" // initial manifest/snapshot sync in progress
	StateStreaming     = "streaming"     // tailing the leader's WAL
	StateDegraded      = "degraded"      // no successful leader contact within StaleAfter
	StatePromoted      = "promoted"      // detached by Promote; no longer following
	StateStopped       = "stopped"       // Run returned (context cancelled)
)

// GraphStatus is one graph's replication position.
type GraphStatus struct {
	Graph      string `json:"graph"`
	AppliedSeq uint64 `json:"applied_seq"`
	LeaderSeq  uint64 `json:"leader_seq"`
	// LagRecords = LeaderSeq - AppliedSeq as of the last poll.
	LagRecords uint64 `json:"lag_records"`
	// LagBytes is the leader's estimate of WAL bytes not yet applied here.
	LagBytes int64 `json:"lag_bytes"`
	// LagAgeSeconds is how long the graph has continuously been behind the
	// leader's head; 0 when caught up.
	LagAgeSeconds float64 `json:"lag_age_seconds"`
	// Bootstraps counts snapshot re-bootstraps of this graph (1 = the
	// initial one; more mean compaction outran the tail or the graph was
	// replaced).
	Bootstraps int    `json:"bootstraps"`
	Error      string `json:"error,omitempty"`
}

// Status is a point-in-time view of a follower's replication stream — the
// body of GET /v1/replication/status on a follower.
type Status struct {
	Role          string        `json:"role"` // always "follower" here
	Leader        string        `json:"leader"`
	State         string        `json:"state"`
	ConfigVersion uint64        `json:"config_version"`
	Graphs        []GraphStatus `json:"graphs"`
	// LagRecords/LagBytes/LagAgeSeconds aggregate the worst graph.
	LagRecords    uint64  `json:"lag_records"`
	LagBytes      int64   `json:"lag_bytes"`
	LagAgeSeconds float64 `json:"lag_age_seconds"`
	// LastContactSeconds is the time since any leader request succeeded.
	LastContactSeconds float64 `json:"last_contact_seconds"`
	Error              string  `json:"error,omitempty"`
}

// Ready is the /readyz predicate: the follower is routable when it is
// actively streaming and within maxLag records of the leader (maxLag 0
// means any finite lag is acceptable as long as the stream is live).
func (st Status) Ready(maxLag uint64) bool {
	if st.State != StateStreaming {
		return false
	}
	return maxLag == 0 || st.LagRecords <= maxLag
}

// graphState is the replicator's mutable per-graph tracking.
type graphState struct {
	appliedSeq uint64
	leaderSeq  uint64
	lagBytes   int64
	behindAt   time.Time // zero when caught up; else when the lag streak began
	bootstraps int
	err        string
}

// Replicator follows one leader: it syncs the manifest, bootstraps graphs
// from snapshots and runs one WAL tailer per graph, applying batches
// through an Applier. Safe for concurrent Status calls while running.
type Replicator struct {
	client *Client
	app    Applier
	opts   Options

	stopOnce sync.Once
	stopCh   chan struct{} // closed by Promote/Stop
	doneCh   chan struct{} // closed when Run returns

	mu            sync.Mutex
	state         string
	configVersion uint64
	graphs        map[string]*graphState
	lastContact   time.Time
	lastErr       string
}

// New returns a Replicator following the leader behind client, applying
// into app. Call Run to start.
func New(client *Client, app Applier, opts Options) *Replicator {
	return &Replicator{
		client: client,
		app:    app,
		opts:   opts.withDefaults(),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
		state:  StateBootstrapping,
		graphs: map[string]*graphState{},
	}
}

// Run follows the leader until ctx is cancelled or Promote is called. It
// blocks; callers run it in a goroutine. The returned error is ctx.Err()
// for cancellation, nil for promotion — transient leader failures are
// retried forever with backoff, never returned.
func (r *Replicator) Run(ctx context.Context) error {
	defer close(r.doneCh)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-r.stopCh:
			cancel()
		case <-runCtx.Done():
		}
	}()

	backoff := r.opts.Backoff
	for {
		if err := runCtx.Err(); err != nil {
			r.setFinalState()
			return r.finalErr(ctx)
		}
		m, err := r.client.Manifest(runCtx)
		if err != nil {
			r.noteError(fmt.Errorf("manifest: %w", err))
			backoff = r.sleep(runCtx, backoff)
			continue
		}
		r.noteContact()
		if err := r.syncManifest(runCtx, m); err != nil {
			r.noteError(fmt.Errorf("sync: %w", err))
			backoff = r.sleep(runCtx, backoff)
			continue
		}
		backoff = r.opts.Backoff

		// One tailer per graph, so a long poll on an idle graph never
		// starves a busy one. They run until the context dies or any
		// tailer sees a new config version and asks for a re-sync.
		tailCtx, stopTails := context.WithCancel(runCtx)
		resync := make(chan struct{}, 1)
		var wg sync.WaitGroup
		for _, gm := range m.Graphs {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				r.tailGraph(tailCtx, name, resync)
			}(gm.Name)
		}
		r.setState(StateStreaming)
		select {
		case <-tailCtx.Done():
		case <-resync:
		}
		stopTails()
		wg.Wait()
	}
}

// Stop detaches the replicator: tailers stop, Run returns. Idempotent.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
}

// Promote detaches the replicator and waits (bounded by ctx) for the
// stream to fully stop, leaving the local state a consistent prefix of the
// leader's — the first step of turning a follower into a writable leader.
func (r *Replicator) Promote(ctx context.Context) error {
	r.Stop()
	select {
	case <-r.doneCh:
	case <-ctx.Done():
		return fmt.Errorf("replica: promote: stream still draining: %w", ctx.Err())
	}
	r.mu.Lock()
	r.state = StatePromoted
	r.mu.Unlock()
	return nil
}

// setFinalState distinguishes a promoted stop from a plain shutdown.
func (r *Replicator) setFinalState() {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.stopCh:
		r.state = StatePromoted
	default:
		r.state = StateStopped
	}
}

// finalErr reports nil for promotion, the context error for cancellation.
func (r *Replicator) finalErr(ctx context.Context) error {
	select {
	case <-r.stopCh:
		return nil
	default:
		return ctx.Err()
	}
}

// syncManifest brings the local registry up to the manifest: grammars are
// (re-)applied — the Applier no-ops unchanged texts — and any graph whose
// local position is missing is bootstrapped. Graphs whose local seq ran
// PAST the leader's head (the leader lost state or the graph was replaced)
// are re-bootstrapped too; the common catch-up case (local seq ≤ leader
// seq) is left to the tailer.
func (r *Replicator) syncManifest(ctx context.Context, m *Manifest) error {
	names := make([]string, 0, len(m.Grammars))
	for name := range m.Grammars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := r.app.ApplyGrammar(name, m.Grammars[name]); err != nil {
			return fmt.Errorf("grammar %q: %w", name, err)
		}
	}
	r.mu.Lock()
	r.configVersion = m.ConfigVersion
	live := map[string]bool{}
	for _, gm := range m.Graphs {
		live[gm.Name] = true
		if r.graphs[gm.Name] == nil {
			r.graphs[gm.Name] = &graphState{}
		}
		r.graphs[gm.Name].leaderSeq = gm.Seq
	}
	for name := range r.graphs {
		if !live[name] {
			delete(r.graphs, name) // gone on the leader; stop reporting it
		}
	}
	r.mu.Unlock()
	for _, gm := range m.Graphs {
		local, epoch, ok := r.app.GraphPos(gm.Name)
		if ok && epoch == gm.Epoch && local <= gm.Seq {
			continue
		}
		if err := r.bootstrapGraph(ctx, gm.Name); err != nil {
			return err
		}
	}
	return nil
}

// bootstrapGraph replaces the local copy of one graph with the leader's
// snapshot.
func (r *Replicator) bootstrapGraph(ctx context.Context, name string) error {
	raw, _, epoch, err := r.client.GraphSnapshot(ctx, name)
	if err != nil {
		return fmt.Errorf("graph %q snapshot: %w", name, err)
	}
	g, names, seq, err := store.DecodeSnapshot(raw)
	if err != nil {
		return fmt.Errorf("graph %q snapshot: %w", name, err)
	}
	if err := r.app.BootstrapGraph(name, g, names, seq, epoch); err != nil {
		return fmt.Errorf("graph %q bootstrap: %w", name, err)
	}
	r.noteContact()
	r.mu.Lock()
	gs := r.graphs[name]
	if gs == nil {
		gs = &graphState{}
		r.graphs[name] = gs
	}
	gs.appliedSeq = seq
	if gs.leaderSeq < seq {
		gs.leaderSeq = seq
	}
	gs.bootstraps++
	gs.err = ""
	r.mu.Unlock()
	return nil
}

// tailGraph is one graph's streaming loop: long-poll the leader's WAL from
// the local position, apply every returned batch, re-bootstrap on the
// snapshot-required signal, back off on errors, and request a manifest
// re-sync when the leader's config version moves.
func (r *Replicator) tailGraph(ctx context.Context, name string, resync chan<- struct{}) {
	backoff := r.opts.Backoff
	for ctx.Err() == nil {
		from, epoch, ok := r.app.GraphPos(name)
		if !ok {
			if err := r.bootstrapGraph(ctx, name); err != nil {
				r.noteGraphError(name, err)
				backoff = r.sleep(ctx, backoff)
			}
			continue
		}
		resp, err := r.client.Tail(ctx, name, from, epoch, r.opts.PollWait)
		switch {
		case errors.Is(err, ErrSnapshotRequired):
			// The tail from our position is gone (compaction) or invalid
			// (graph replaced): re-bootstrap rather than diverge.
			if err := r.bootstrapGraph(ctx, name); err != nil {
				r.noteGraphError(name, err)
				backoff = r.sleep(ctx, backoff)
			}
			continue
		case errors.Is(err, ErrUnknownGraph):
			// The graph vanished from the leader: the registry drifted,
			// re-sync the manifest.
			r.requestResync(resync)
			return
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			r.noteGraphError(name, err)
			backoff = r.sleep(ctx, backoff)
			continue
		}
		backoff = r.opts.Backoff
		r.noteContact()
		applied := from
		var applyErr error
		for _, b := range resp.Batches {
			if applyErr = r.app.ApplyReplicatedEdges(ctx, name, b.Kind, b.Recs, b.Seq); applyErr != nil {
				break
			}
			applied = b.Seq
		}
		r.noteProgress(name, applied, resp.LeaderSeq, resp.RemainingBytes, applyErr)
		if applyErr != nil {
			if errors.Is(applyErr, store.ErrSeqMismatch) {
				if err := r.bootstrapGraph(ctx, name); err != nil {
					r.noteGraphError(name, err)
					backoff = r.sleep(ctx, backoff)
				}
				continue
			}
			backoff = r.sleep(ctx, backoff)
			continue
		}
		if resp.ConfigVersion != r.currentConfigVersion() {
			r.requestResync(resync)
			return
		}
	}
}

func (r *Replicator) requestResync(resync chan<- struct{}) {
	select {
	case resync <- struct{}{}:
	default:
	}
}

// sleep waits out a backoff (or the context) and returns the next delay.
func (r *Replicator) sleep(ctx context.Context, d time.Duration) time.Duration {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
	next := d * 2
	if next > r.opts.MaxBackoff {
		next = r.opts.MaxBackoff
	}
	return next
}

func (r *Replicator) currentConfigVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.configVersion
}

func (r *Replicator) setState(state string) {
	r.mu.Lock()
	r.state = state
	r.mu.Unlock()
}

func (r *Replicator) noteContact() {
	r.mu.Lock()
	r.lastContact = time.Now()
	r.lastErr = ""
	r.mu.Unlock()
}

func (r *Replicator) noteError(err error) {
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
}

func (r *Replicator) noteGraphError(name string, err error) {
	r.mu.Lock()
	if gs := r.graphs[name]; gs != nil {
		gs.err = err.Error()
	}
	r.mu.Unlock()
}

// noteProgress records one poll's outcome for a graph's staleness math.
func (r *Replicator) noteProgress(name string, applied, leaderSeq uint64, remainingBytes int64, applyErr error) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	gs := r.graphs[name]
	if gs == nil {
		gs = &graphState{}
		r.graphs[name] = gs
	}
	gs.appliedSeq = applied
	gs.leaderSeq = leaderSeq
	gs.lagBytes = remainingBytes
	if applied >= leaderSeq {
		gs.behindAt = time.Time{}
	} else if gs.behindAt.IsZero() {
		gs.behindAt = now
	}
	if applyErr != nil {
		gs.err = applyErr.Error()
	} else {
		gs.err = ""
	}
}

// Status snapshots the stream.
func (r *Replicator) Status() Status {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Role:          "follower",
		Leader:        r.client.Base,
		State:         r.state,
		ConfigVersion: r.configVersion,
		Error:         r.lastErr,
	}
	if !r.lastContact.IsZero() {
		st.LastContactSeconds = now.Sub(r.lastContact).Seconds()
	}
	// A stream that lost its leader is degraded no matter what the last
	// poll said; readiness keys off this.
	if r.state == StateStreaming &&
		(r.lastContact.IsZero() || now.Sub(r.lastContact) > r.opts.StaleAfter) {
		st.State = StateDegraded
	}
	names := make([]string, 0, len(r.graphs))
	for name := range r.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gs := r.graphs[name]
		g := GraphStatus{
			Graph:      name,
			AppliedSeq: gs.appliedSeq,
			LeaderSeq:  gs.leaderSeq,
			LagBytes:   gs.lagBytes,
			Bootstraps: gs.bootstraps,
			Error:      gs.err,
		}
		if gs.leaderSeq > gs.appliedSeq {
			g.LagRecords = gs.leaderSeq - gs.appliedSeq
		}
		if !gs.behindAt.IsZero() {
			g.LagAgeSeconds = now.Sub(gs.behindAt).Seconds()
		}
		st.Graphs = append(st.Graphs, g)
		if g.LagRecords > st.LagRecords {
			st.LagRecords = g.LagRecords
		}
		if g.LagBytes > st.LagBytes {
			st.LagBytes = g.LagBytes
		}
		if g.LagAgeSeconds > st.LagAgeSeconds {
			st.LagAgeSeconds = g.LagAgeSeconds
		}
	}
	return st
}

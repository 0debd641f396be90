// Package server turns the CFPQ library into an in-process query service:
// a registry of named graphs and grammars, with closure indexes built
// lazily and cached per (graph, grammar, backend). The caching, versioning
// and incremental-update machinery itself lives in the public API — each
// cache slot holds a cfpq.Prepared handle, which answers concurrent
// queries from a pinned, immutable index version and absorbs edge updates
// by publishing the next one — and which node a token names is decided by
// graph.Names, so this package keeps only registry concerns, one path each:
//
//   - installGraph builds a graphEntry and swaps it into the registry,
//     behind RegisterGraph, BootstrapGraph (follower) and AttachStore
//     (recovery).
//   - applyBatch takes an edge batch into a graph — writer lock,
//     registry-identity re-check, validate, journal write-ahead, intern and
//     add on a fork of the published edge set, publish it as the next
//     version — then patchIndexes, and ends, holding no lock, by folding a
//     WAL the batch took past -compact-bytes (store.CompactIfDue); behind
//     AddEdges (the leader's write gate and its rejection of out-of-range
//     numeric ids) and ApplyReplicatedEdges (the leader's record kind, seq
//     continuity). A follower therefore interns, journals, patches and
//     folds exactly as the leader did.
//   - resolve binds a request's registry names, non-terminal or RPQ
//     expression (a grammar too: its right-linear lowering has a slot of
//     its own) and node tokens to the graph entry, the cached handle and a
//     cfpq.Request, behind POST /v1/query, /v1/query/batch and
//     /v1/subscribe. The only closure a request can run is a slot's build.
//   - one answer writer (answer.go) puts result pairs on the wire, for
//     query answers, batch answers and SSE events alike: it names them
//     through the name table as it appends their JSON to a pooled buffer,
//     in the bytes encoding/json writes for the typed answers that
//     Service.Do and QueryBatch return (graphEntry.named names those). A
//     live subscription is the library's cfpq.Subscription, streamed as
//     it is; its one record here is its entry in the live set behind the
//     /metrics gauges, removed when its request ends.
//
// Concurrency design. No reader waits on a write. A query resolves a built
// slot through indexEntry.ready (an atomic pointer, no entry lock), and the
// Prepared answers it from the version it pins, whatever a writer is
// building beside it. Above it, the registry graph works the same way:
// graphEntry.cur is an atomic pointer to an immutable graphVersion (edge
// set, seq, version, epoch), which every reader — resolve, QueryBatch,
// GraphInfo, the index build's pin, savedIndexes, GraphPos and a
// follower's bootstrap — loads once, taking no registry lock. The name
// table guards itself (graph.Names) and only appends, so a reader pins it
// once per answer, after the answer is computed, and renders from it
// lock-free. The locks are the writers':
//
//   - Service.mu (plain Mutex) guards only registry map membership. It is
//     never held across anything slow, and no writer lock is taken under it.
//   - graphEntry.writer (Mutex) serialises one graph's writers: applyBatch
//     holds it across the fsynced journal append, the intern and the
//     publish, so journal order is apply order, and an install holds the
//     replaced entry's across the store write and the swap. No reader takes
//     it: a replaced graph serves its old version until the swap, and a new
//     name is unknown until its install has published a version.
//   - indexEntry.mu (Mutex) is a slot's writer-side lock: it serialises
//     the build-once closure, each incremental patch (patchIndexes holds
//     it through Prepared.AddEdges) and invalidation. Only a query that
//     finds the slot not ready takes it; the cfpq.Prepared inside has its
//     own writer mutex, pins a version with one atomic load, and holds a
//     publish mutex only to store the next version and push its delta.
//
// A version's edge set is never mutated: applyBatch publishes a fork of it
// that holds the batch (graph.Fork allows one appender per line of
// versions, and the holder of the writer lock is that one). Whoever loaded
// a version reads its graph lock-free for as long as it likes: GraphInfo
// counts it, the cold build and the warm start bind a cfpq.Prepared to it
// as it is, and a follower's bootstrap is encoded from it: an attached
// store keeps only the journal. Nothing else may Fork it — a second
// appender would write into the slots the next batch claims — and a
// Prepared never does: it never writes a graph it was given, and its first
// update that adds an edge Clones the version it holds, starting a line of
// its own. applyBatch patches each cached handle with the same edges it
// published. A query registers its index entry in the cache *before*
// pinning the graph, and applyBatch walks the cache *after* publishing;
// the two orderings together guarantee every cached index either saw the
// new edges when it was built or is patched by the update — no lost
// updates (re-applying edges a build already saw is a no-op: the registry
// graph is a multigraph and keeps parallel edges, but Prepared.AddEdges
// skips edges its graph holds and the delta seeds only missing bits).
// Edges that name new nodes are patched like any others: what happens when
// the node set grows is the engine's decision (core.UpdateContext), not
// the registry's.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cfpq"
	"cfpq/internal/graph"
	"cfpq/internal/replica"
	"cfpq/internal/rpq"
	"cfpq/internal/store"
)

// ErrNotFound marks lookups of unregistered names — graphs, grammars,
// non-terminals, nodes. The HTTP layer maps it to 404.
var ErrNotFound = errors.New("not found")

// notFoundf builds an error wrapping ErrNotFound.
func notFoundf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrNotFound)
}

// errStore marks a durable-store write that failed: the fault is the
// server's, not the request's, and the HTTP layer maps it to 500.
var errStore = errors.New("store write failed")

// storeFault wraps a store write's error in errStore. nil stays nil, and so
// does a token too long for the store's frames: that is the request's fault.
func storeFault(err error) error {
	if err == nil || errors.Is(err, store.ErrTooLong) {
		return err
	}
	return fmt.Errorf("%w: %w", errStore, err)
}

// Service is a concurrent CFPQ query service over named graphs and
// grammars. The zero value is not usable; call New.
type Service struct {
	mu       sync.Mutex
	graphs   map[string]*graphEntry
	grammars map[string]*grammarEntry
	indexes  map[IndexKey]*indexEntry

	// store, when non-nil, is the durable store every mutation tees into
	// (see AttachStore in persist.go). Written once at attach time, before
	// serving; read without s.mu on the hot paths.
	store *store.Store

	// exprClock stamps slots as they are resolved (indexEntry.used), so
	// that past maxExprSlots the least recently used expr slot is evicted.
	// Guarded by mu.
	exprClock uint64

	// budget is the per-closure memory budget in bytes every engine this
	// service constructs carries (Service.engine); 0 means unlimited.
	// Atomic so it can be set after serving started.
	budget atomic.Int64

	// readOnly, when set, rejects every locally-originated mutation with
	// ErrReadOnly — the follower gate. Replicated applies (ApplyGrammar,
	// BootstrapGraph, ApplyReplicatedEdges) bypass it: they carry the
	// leader's writes, which are the only writes a follower accepts.
	readOnly atomic.Bool

	// replication, when non-nil, is the follower's replicator
	// (SetReplication); readinessMaxLag bounds /readyz staleness in
	// records, 0 = any finite lag.
	replication     atomic.Pointer[replica.Replicator]
	readinessMaxLag atomic.Uint64

	// Live-query state (subscribe.go): the live subscriptions behind the
	// /metrics subscription gauges, the drops of subscriptions already
	// closed (the drop counter is this plus the live subscriptions' own
	// counts, both read under subMu), and the SSE heartbeat override.
	subMu          sync.Mutex
	subsLive       map[*cfpq.Subscription]struct{}
	subDropsClosed int64
	subHeartbeatNs atomic.Int64

	// obs is the service's one instrument set (metrics.go), behind both
	// GET /metrics and /debug/vars; started anchors the uptime gauge and
	// /healthz.
	obs     *obsMetrics
	started time.Time
}

// ErrReadOnly marks mutations rejected because this node is a read-only
// follower; the HTTP layer maps it to 403. Writes go to the leader.
var ErrReadOnly = errors.New("server: node is a read-only follower; write to the leader")

// SetReadOnly flips the follower write gate: when on, RegisterGraph,
// RegisterGrammar and AddEdges reject with ErrReadOnly while the
// replication apply path keeps working. Promote flips it back off.
func (s *Service) SetReadOnly(on bool) { s.readOnly.Store(on) }

// writable is the gate every locally-originated mutation passes.
func (s *Service) writable() error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	return nil
}

// SetMemoryBudget bounds the estimated matrix bytes any single closure
// evaluation run by this service may hold (cfpq.WithMemoryBudget): index
// builds of grammar and expr slots, warm starts and patches alike. A breach
// answers with a typed error the HTTP layer maps to 413, ticking
// budget_rejections. bytes ≤ 0 means unlimited. Cached engines keep the
// budget they were built with: set it before serving for uniform behaviour.
func (s *Service) SetMemoryBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	s.budget.Store(bytes)
}

// engine returns an engine over be under the memory budget in force now.
func (s *Service) engine(be cfpq.Backend) *cfpq.Engine {
	return cfpq.NewEngine(be, cfpq.WithMemoryBudget(s.budget.Load()))
}

// noteErr classifies an evaluation error into the error counters —
// currently just memory-budget rejections — and returns it unchanged.
func (s *Service) noteErr(err error) error {
	var be *cfpq.MemoryBudgetError
	if errors.As(err, &be) {
		s.obs.budgetRejections.Inc()
	}
	return err
}

// New returns an empty service.
func New() *Service {
	s := &Service{
		graphs:   map[string]*graphEntry{},
		grammars: map[string]*grammarEntry{},
		indexes:  map[IndexKey]*indexEntry{},
		started:  time.Now(),
	}
	s.obs = newObsMetrics(s)
	return s
}

// graphEntry is one registry graph. Readers load its published version
// once and take no lock; writer only serialises the writers.
type graphEntry struct {
	// writer is held by applyBatch and by an install replacing the entry,
	// across the journal write, the intern and the publish, so that journal
	// order is apply order. No reader takes it.
	writer sync.Mutex
	// cur is the published version: nil until the install that created the
	// entry has returned, then replaced, never mutated, by each batch.
	cur   atomic.Pointer[graphVersion]
	names *graph.Names // which node a token names; guards itself

	// patching (guarded by writer) counts batches that have published but
	// whose patchIndexes has not returned; indexed is seq as of the last
	// moment it was zero — the position every ready index on this graph is
	// known to cover, and the watermark a snapshot may save one under (see
	// savedIndexes).
	patching int
	indexed  atomic.Uint64
}

// graphVersion is one published state of a registry graph: immutable.
type graphVersion struct {
	g       *graph.Graph // the edge set; whoever loaded the version reads it lock-free
	seq     uint64       // edge-stream position: edges applied since the stream began
	version int          // bumped on every successful mutation
	epoch   uint64       // edge-stream identity (replication); 0 when untracked
}

type grammarEntry struct {
	gram *cfpq.Grammar
	cnf  *cfpq.CNF
	src  string
	// retired is set once a replacement is about to drop the grammar's
	// saved indexes: no index of it is saved after (see indexData).
	retired atomic.Bool
}

// IndexKey identifies one cached closure index: a registry grammar's, or
// an RPQ expression's — Expr holds its canonical form (rpq.Regex.String)
// and Grammar is empty, so the two kinds never collide.
type IndexKey struct {
	Graph   string
	Grammar string
	Expr    string
	Backend string
}

// maxExprSlots bounds the expr slots the service holds; resolving one more
// evicts the least recently used. Expr slots are derived data: never
// persisted, never warm-started, rebuilt on demand.
const maxExprSlots = 16

// indexEntry is one cache slot: build-once state around a public
// cfpq.Prepared handle, which does the actual caching, locking and
// incremental maintenance.
type indexEntry struct {
	mu    sync.Mutex
	key   IndexKey
	ge    *graphEntry    // the registry graph the handle is (being) built from
	stale bool           // invalidated (replacement, eviction or an abandoned update); off the cache map
	p     *cfpq.Prepared // nil until the slot is built
	start string         // an expr slot's non-terminal (its lowering's start); set with p
	used  uint64         // Service.exprClock at the last resolve; guarded by Service.mu

	// ready is p once the slot is built and for as long as it is not
	// stale — what readers resolve the slot through, without mu, so a
	// patch holding mu across an update closure stops nobody. Stored by
	// whoever sets p, cleared by invalidate.
	ready atomic.Pointer[cfpq.Prepared]

	// derived counts the pairs a grammar slot's patches derived since its
	// index file was saved, and filed the pairs in that file: the measure of
	// a restart's replay that checkpoint bounds.
	derived, filed atomic.Int64
}

// due reports whether the slot's pairs derived since its index file exceed
// a quarter of the file's: a checkpoint's rule.
func (e *indexEntry) due() bool { return e.derived.Load() > e.filed.Load()/4 }

// invalidate marks the slot stale and takes it off the readers' fast path;
// callers hold e.mu.
func (e *indexEntry) invalidate() {
	e.stale = true
	e.ready.Store(nil)
}

// DefaultBackend is used when a query names no backend.
const DefaultBackend = "sparse"

// --- registration -----------------------------------------------------

// RegisterGraph installs (or replaces) a named graph. names maps node
// names to ids and may be nil for graphs addressed by numeric id only.
// Replacing a graph drops every cached index built on it.
func (s *Service) RegisterGraph(name string, g *graph.Graph, names map[string]int) error {
	if err := s.writable(); err != nil {
		return err
	}
	if g == nil {
		return fmt.Errorf("server: nil graph")
	}
	for n, id := range names {
		if id < 0 || id >= g.Nodes() {
			// An out-of-range mapping has no row in the name table: the
			// name would be dropped and silently intern as a different,
			// fresh node on the first AddEdges through it.
			return fmt.Errorf("server: name %q maps to node %d, outside [0,%d)", n, id, g.Nodes())
		}
	}
	return s.installGraph(name, g, graph.NewNames(g.Nodes(), graph.NodeNames(g.Nodes(), names)), 0, 0)
}

// installGraph is the one place a graphEntry is built and swapped into the
// registry — behind RegisterGraph (seq 0, epoch 0 = mint a fresh stream),
// BootstrapGraph (the leader's position and epoch) and AttachStore (the
// recovered ones; no store is attached yet, so nothing is written back).
// names is g's name table, which the entry keeps. Every cached index on a
// replaced graph is dropped: its node-id namespace died with the old copy.
func (s *Service) installGraph(name string, g *graph.Graph, names *graph.Names, seq, epoch uint64) error {
	if name == "" {
		return fmt.Errorf("server: empty graph name")
	}
	if g == nil {
		return fmt.Errorf("server: nil graph")
	}
	ge := &graphEntry{names: names}
	ge.indexed.Store(seq)
	// Installs of one name are serialised: each holds the writer lock of the
	// entry it replaces — or, for a new name, of ge, entered in the registry
	// locked and without a version — across the store write AND the
	// registry swap, so the order of store writes is the order of swaps, and
	// a second installer queues on the entry as a batch does. A batch
	// applied to the replaced entry either finishes entirely before this
	// (its WAL record lands in the old log, removed with it) or re-checks
	// registry identity after we are done and rejects — no batch can be
	// journaled into the replacement's WAL while its in-memory mutation
	// lands on the orphaned entry. Readers wait for none of it: a replaced
	// graph serves its old version until the swap, and a new name is
	// unknown until its version is published.
	old := s.lockInstall(name, ge)
	var err error
	if s.store != nil {
		// Persist before installing (write-ahead): a failed snapshot write
		// leaves neither side registered. Replacing a stored graph drops
		// its WAL and saved indexes along with the old snapshot.
		if err = s.store.CreateGraphAt(name, g, names.ByID(), seq, epoch); err == nil {
			// Mirror the stream epoch (freshly minted when ours was 0) so
			// followers attached to this node can pin their positions to it.
			if _, minted, perr := s.store.GraphPos(name); perr == nil {
				epoch = minted
			}
		}
		err = storeFault(err)
	}
	if err == nil {
		ge.cur.Store(&graphVersion{g: g, seq: seq, epoch: epoch})
	}
	var dropped []*indexEntry
	s.mu.Lock()
	switch {
	case err == nil && old != nil: // a replacement: the old copy's indexes go with it
		s.graphs[name] = ge
		dropped = s.removeIndexesLocked(func(k IndexKey) bool { return k.Graph == name })
	case err != nil && old == nil: // a new name the store refused: unpublish it
		delete(s.graphs, name)
	}
	s.mu.Unlock()
	// Released before markStale, which waits for each dropped slot's lock:
	// a build holds it for a whole closure, and writers need not wait.
	ge.writer.Unlock()
	if old != nil {
		old.writer.Unlock()
	}
	markStale(dropped)
	return err
}

// lockInstall locks ge's writer, waits for the turn of an install of name
// and returns the entry it replaces, writer-locked — or nil, having entered
// ge under the new name, so that a racing installer queues on it. An entry
// replaced while this waited for its lock is let go, and its successor
// waited on instead. The caller releases both locks.
func (s *Service) lockInstall(name string, ge *graphEntry) *graphEntry {
	ge.writer.Lock() // unpublished: nobody else can hold it
	for {
		s.mu.Lock()
		cur := s.graphs[name]
		if cur == nil {
			s.graphs[name] = ge
		}
		s.mu.Unlock()
		if cur == nil {
			return nil
		}
		cur.writer.Lock()
		s.mu.Lock()
		current := s.graphs[name] == cur
		s.mu.Unlock()
		if current {
			return cur
		}
		cur.writer.Unlock()
	}
}

// GraphFormats lists the formats LoadGraph accepts.
var GraphFormats = []string{"ntriples", "edgelist"}

// LoadGraph reads a graph document in the given format ("ntriples", with
// the paper's inverse-edge expansion, or "edgelist") and registers it.
func (s *Service) LoadGraph(name, format string, r io.Reader) (graph.Stats, error) {
	var (
		g   *graph.Graph
		ids map[string]int
		err error
	)
	switch format {
	case "ntriples", "nt", "":
		g, ids, err = graph.LoadNTriples(r)
	case "edgelist", "edges":
		g, ids, err = graph.LoadEdgeList(r)
	default:
		return graph.Stats{}, fmt.Errorf("server: unknown graph format %q (want ntriples or edgelist)", format)
	}
	if err != nil {
		return graph.Stats{}, err
	}
	if err := s.RegisterGraph(name, g, ids); err != nil {
		return graph.Stats{}, err
	}
	return g.Stats(), nil
}

// RegisterGrammar parses and installs (or replaces) a named grammar. The
// CNF conversion happens eagerly so malformed grammars are rejected at
// registration time, not at first query. Replacing a grammar drops every
// cached index built on it.
func (s *Service) RegisterGrammar(name, text string) error {
	if err := s.writable(); err != nil {
		return err
	}
	return s.registerGrammar(name, text)
}

// registerGrammar is RegisterGrammar behind the write gate; the
// replication apply path calls it directly.
func (s *Service) registerGrammar(name, text string) error {
	if name == "" {
		return fmt.Errorf("server: empty grammar name")
	}
	gram, err := cfpq.ParseGrammar(text)
	if err != nil {
		return err
	}
	cnf, err := cfpq.ToCNF(gram)
	if err != nil {
		return err
	}
	if s.store != nil {
		// Drop the replaced grammar's saved indexes BEFORE saving the new
		// text: their relations belong to the old text and must not
		// warm-start under the new one. In this order a crash between the
		// two steps costs a rebuild; the reverse order would leave old
		// indexes that type-check against the new grammar (non-terminal
		// names often coincide) and silently serve stale relations. The
		// old entry is retired first, so that a save of its index that
		// reaches the graph's log lock after the drop writes nothing. A
		// replacement that fails after this leaves the old entry serving,
		// its indexes unsaved: a restart rebuilds them.
		s.mu.Lock()
		old := s.grammars[name]
		s.mu.Unlock()
		if old != nil {
			old.retired.Store(true)
		}
		if err := s.store.DropGrammarIndexes(name); err != nil {
			return storeFault(err)
		}
		if err := s.store.SaveGrammar(name, text); err != nil {
			return storeFault(err)
		}
	}
	s.mu.Lock()
	s.grammars[name] = &grammarEntry{gram: gram, cnf: cnf, src: text}
	dropped := s.removeIndexesLocked(func(k IndexKey) bool { return k.Grammar == name })
	s.mu.Unlock()
	markStale(dropped)
	return nil
}

// removeIndexesLocked deletes matching cache entries from the map and
// returns them; callers hold s.mu. Taking each entry's own lock happens
// in markStale AFTER s.mu is released: an entry mid-build holds its lock
// for the whole closure, and stalling every registry operation behind one
// build would freeze the service. In-flight queries on a dropped entry
// finish against the old data.
func (s *Service) removeIndexesLocked(match func(IndexKey) bool) []*indexEntry {
	var dropped []*indexEntry
	for k, e := range s.indexes {
		if match(k) {
			delete(s.indexes, k)
			dropped = append(dropped, e)
		}
	}
	return dropped
}

// markStale flags removed entries so a racing AddEdges that captured them
// before the removal skips patching them.
func markStale(dropped []*indexEntry) {
	for _, e := range dropped {
		e.mu.Lock()
		e.invalidate()
		p := e.p
		e.mu.Unlock()
		if p != nil {
			// End the handle's subscriptions: nothing will ever publish to
			// a dropped entry again, and a closed channel tells streaming
			// clients to re-resolve instead of waiting forever.
			p.Close()
		}
	}
}

// --- listings ---------------------------------------------------------

// GraphInfo describes one registered graph.
type GraphInfo struct {
	Name    string `json:"name"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Labels  int    `json:"labels"`
	Version int    `json:"version"`
}

// Graphs lists registered graphs, sorted by name.
func (s *Service) Graphs() []GraphInfo {
	s.mu.Lock()
	pinned := make(map[string]*graphVersion, len(s.graphs))
	for n, e := range s.graphs {
		if v := e.cur.Load(); v != nil {
			pinned[n] = v
		}
	}
	s.mu.Unlock()
	out := make([]GraphInfo, 0, len(pinned))
	for n, v := range pinned {
		out = append(out, v.info(n))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (v *graphVersion) info(name string) GraphInfo {
	st := v.g.Stats()
	return GraphInfo{Name: name, Nodes: st.Nodes, Edges: st.Edges, Labels: st.Labels, Version: v.version}
}

// GrammarInfo describes one registered grammar.
type GrammarInfo struct {
	Name         string   `json:"name"`
	Nonterminals []string `json:"nonterminals"`
	Source       string   `json:"source,omitempty"`
}

// Grammars lists registered grammars, sorted by name.
func (s *Service) Grammars() []GrammarInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GrammarInfo, 0, len(s.grammars))
	for n, e := range s.grammars {
		out = append(out, GrammarInfo{Name: n, Nonterminals: e.gram.Nonterminals(), Source: e.src})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GrammarInfoFor returns one registered grammar's info.
func (s *Service) GrammarInfoFor(name string) (GrammarInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.grammars[name]
	if e == nil {
		return GrammarInfo{}, notFoundf("server: unknown grammar %q", name)
	}
	return GrammarInfo{Name: name, Nonterminals: e.gram.Nonterminals(), Source: e.src}, nil
}

// --- queries ----------------------------------------------------------

// Target names the (graph, grammar, backend) triple a query runs against.
// An empty Backend means DefaultBackend.
type Target struct {
	Graph   string `json:"graph"`
	Grammar string `json:"grammar"`
	Backend string `json:"backend,omitempty"`
}

// key is the target's index slot. The backend is keyed by its canonical
// name, so the names of one kernel ("sparse", "sparse-parallel") share one
// build, one budget charge and one index file; an unknown name stays as
// sent, for index to reject.
func (t Target) key() IndexKey {
	be := t.Backend
	if be == "" {
		be = DefaultBackend
	}
	if b, err := cfpq.BackendByName(be); err == nil {
		be = b.Name()
	}
	return IndexKey{Graph: t.Graph, Grammar: t.Grammar, Backend: be}
}

// index returns the cache entry and its built Prepared handle for the
// slot key (canonical, see Target.key), building on first use. A built,
// non-stale slot is resolved without its lock, and the handle answers from
// a pinned version, so queries share an index and wait for neither a build
// of another slot nor an update of this one. A new expr slot past
// maxExprSlots evicts the least recently used one. A failed build returns
// the entry beside its error: the request resolved its slot, and its
// handler labels the latency series with the slot's backend.
func (s *Service) index(ctx context.Context, key IndexKey) (*indexEntry, *cfpq.Prepared, error) {
	be, err := cfpq.BackendByName(key.Backend)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	ge := s.graphs[key.Graph]
	re := s.grammars[key.Grammar]
	if ge == nil || ge.cur.Load() == nil {
		s.mu.Unlock()
		return nil, nil, notFoundf("server: unknown graph %q", key.Graph)
	}
	if re == nil && key.Expr == "" {
		s.mu.Unlock()
		return nil, nil, notFoundf("server: unknown grammar %q", key.Grammar)
	}
	// Register the entry before pinning the graph (see package comment:
	// this ordering, with applyBatch walking the cache after publishing,
	// excludes lost updates).
	e := s.indexes[key]
	var evicted []*indexEntry
	if e == nil {
		if key.Expr != "" {
			evicted = s.evictExprLocked()
		}
		e = &indexEntry{key: key, ge: ge}
		s.indexes[key] = e
	}
	s.exprClock++
	e.used = s.exprClock
	s.mu.Unlock()
	markStale(evicted)

	if p := e.ready.Load(); p != nil {
		return e, p, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.p == nil {
		cnf, start := (*cfpq.CNF)(nil), ""
		if re != nil {
			cnf = re.cnf
		} else if cnf, start, err = exprCNF(key.Expr); err != nil {
			return e, nil, err
		}
		// Built now, the engine carries the budget in force when the closure
		// runs (a rejected build retries under a new one) into every patch.
		eng := s.engine(be)
		// The handle binds the published version as it is (see package
		// comment). An applyBatch racing this build either finds the slot
		// unbuilt and skips it — in which case it published before our pin
		// and the edges are in the version — or serialises behind us on e.mu
		// and patches the finished handle (a no-op for edges the build saw).
		v := e.ge.cur.Load()
		buildStart := time.Now()
		p, err := eng.PrepareCNF(ctx, v.g, cnf)
		if err != nil {
			return e, nil, s.noteErr(err)
		}
		s.obs.indexBuild.Observe(time.Since(buildStart).Seconds())
		e.p, e.start = p, start
		e.ready.Store(p)
		if re == nil {
			s.obs.exprIndexBuilds.Inc()
		} else {
			s.obs.indexBuilds.Inc()
			s.persistIndex(e, re, v, p)
		}
	}
	return e, e.p, nil
}

// exprCNF lowers a canonical RPQ expression to the CNF of its right-linear
// grammar and names the non-terminal whose relation answers it. Every
// expression the parser accepts holds a non-empty word, so the start
// symbol always survives the lowering (rpq's TestCanonicalFormIsAFixpoint).
func exprCNF(expr string) (*cfpq.CNF, string, error) {
	r, err := rpq.ParseRegex(expr)
	if err != nil {
		return nil, "", err
	}
	gram, start, _ := rpq.Grammar(r)
	cnf, err := cfpq.ToCNF(gram)
	return cnf, start, err
}

// evictExprLocked makes room for one more expr slot: holding maxExprSlots
// already, it takes the least recently resolved one off the map and
// returns it for markStale. Callers hold s.mu.
func (s *Service) evictExprLocked() []*indexEntry {
	var lru *indexEntry
	held := 0
	for k, e := range s.indexes {
		if k.Expr == "" {
			continue
		}
		held++
		if lru == nil || e.used < lru.used {
			lru = e
		}
	}
	if held < maxExprSlots {
		return nil
	}
	delete(s.indexes, lru.key)
	return []*indexEntry{lru}
}

// graphEntry returns the named graph's entry, which has a published
// version: a new name is unknown until its install has returned.
func (s *Service) graphEntry(name string) (*graphEntry, error) {
	s.mu.Lock()
	ge := s.graphs[name]
	s.mu.Unlock()
	if ge == nil || ge.cur.Load() == nil {
		return nil, notFoundf("server: unknown graph %q", name)
	}
	return ge, nil
}

// resolve is the service's one request-resolve: it binds what a request
// names — the (graph, grammar, backend) target, a non-terminal or an RPQ
// expression, restriction node tokens — to the graph entry, the cached
// handle and a cfpq.Request. POST /v1/query (both languages) and
// /v1/subscribe go through it, and /v1/query/batch through its two halves
// (index once, request per spec), so one bad name gets one error whichever
// route carried it. An expression resolves to the expr slot of its
// canonical form, and the request to that slot's start non-terminal. Once
// the slot resolved, the graph entry comes back beside an error from its
// build or from the request's names too, so that the route labels the
// request with the slot's backend (labelBackend).
func (s *Service) resolve(ctx context.Context, t Target, nonterminal, expr string, sources, targets []string) (*graphEntry, *cfpq.Prepared, cfpq.Request, error) {
	key := t.key()
	if expr != "" {
		r, err := rpq.ParseRegex(expr)
		if err != nil {
			return nil, nil, cfpq.Request{}, err
		}
		key.Expr = r.String()
	}
	e, p, err := s.index(ctx, key)
	if err != nil {
		if e == nil {
			return nil, nil, cfpq.Request{}, err
		}
		return e.ge, nil, cfpq.Request{}, err
	}
	if expr != "" {
		nonterminal = e.start
	}
	req, err := e.ge.request(e.ge.cur.Load(), p, nonterminal, sources, targets)
	return e.ge, p, req, err
}

// request resolves what a request names inside its target: the non-terminal
// against the handle's grammar (Prepared answers an unknown one with an
// empty relation or a plain error; the service contract is 404) and the
// restriction tokens against the graph's name table, as of version v — nil
// stays nil (unrestricted), an empty list stays an empty restriction.
func (ge *graphEntry) request(v *graphVersion, p *cfpq.Prepared, nonterminal string, sources, targets []string) (cfpq.Request, error) {
	req := cfpq.Request{Nonterminal: nonterminal}
	if _, ok := p.CNF().Index(nonterminal); !ok {
		return req, notFoundf("server: unknown non-terminal %q", nonterminal)
	}
	var err error
	if req.Sources, err = ge.nodeIDs(v, sources); err != nil {
		return req, err
	}
	req.Targets, err = ge.nodeIDs(v, targets)
	return req, err
}

// nodeIDs maps node tokens to ids through the graph's name table; nil
// stays nil. A node a batch interned but has not yet published in a
// version after v is unknown.
func (ge *graphEntry) nodeIDs(v *graphVersion, tokens []string) ([]int, error) {
	if tokens == nil {
		return nil, nil
	}
	out := make([]int, 0, len(tokens))
	for _, tok := range tokens {
		id, err := ge.names.LookupIn(tok, v.g.Nodes())
		if errors.Is(err, graph.ErrUnknownNode) {
			return nil, notFoundf("server: unknown node %q", tok)
		} else if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		out = append(out, id)
	}
	return out, nil
}

// NamedPair is one relation element with node names resolved.
type NamedPair struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// named resolves pairs' node names. The name table is pinned once, after
// the pairs were computed, so it covers every id in them.
func (ge *graphEntry) named(pairs []cfpq.Pair) []NamedPair {
	out := make([]NamedPair, len(pairs))
	byID := ge.names.ByID()
	for i, p := range pairs {
		out[i] = NamedPair{From: graph.NameIn(byID, p.I), To: graph.NameIn(byID, p.J)}
	}
	return out
}

// --- batched queries --------------------------------------------------

// BatchQuerySpec is one query of a batch, addressed by node names (or
// decimal ids). Op is one of has, count, relation, count-from,
// relation-from; empty means relation. Targets optionally restricts the
// relation/count operations to pairs entering those nodes — the batch
// analogue of the targets= restriction of the declarative query path.
type BatchQuerySpec struct {
	Op          string   `json:"op,omitempty"`
	Nonterminal string   `json:"nonterminal"`
	From        string   `json:"from,omitempty"`
	To          string   `json:"to,omitempty"`
	Sources     []string `json:"sources,omitempty"`
	Targets     []string `json:"targets,omitempty"`
}

// BatchAnswer is the answer to one BatchQuerySpec. Errors are per-query:
// one malformed query does not fail its batch (registry-level errors —
// unknown graph, grammar or backend — fail the whole call instead).
type BatchAnswer struct {
	Op          string      `json:"op"`
	Nonterminal string      `json:"nonterminal"`
	Has         *bool       `json:"has,omitempty"`
	Count       *int        `json:"count,omitempty"`
	Pairs       []NamedPair `json:"pairs,omitempty"`
	Error       string      `json:"error,omitempty"`
}

// QueryBatch answers a batch of queries against one target from a single
// cached index build: the Prepared handle is resolved (built on first use)
// once, and every query is answered in order from the same pinned index
// version on the request's goroutine (Prepared.QueryBatch). This is the
// endpoint for callers that would
// otherwise issue many POST /v1/query calls against the same (graph,
// grammar) pair.
func (s *Service) QueryBatch(ctx context.Context, t Target, specs []BatchQuerySpec) ([]BatchAnswer, error) {
	ge, answers, pairs, err := s.queryBatch(ctx, t, specs)
	if err != nil {
		return nil, err
	}
	byID := ge.names.ByID()
	for i, res := range pairs {
		if res != nil {
			named := make([]NamedPair, 0, res.Count)
			for p := range res.Pairs() {
				named = append(named, NamedPair{From: graph.NameIn(byID, p.I), To: graph.NameIn(byID, p.J)})
			}
			answers[i].Pairs = named
		}
	}
	return answers, nil
}

// queryBatch is QueryBatch with the relation answers' pairs left unread:
// pairs[i] is answers[i]'s pairs Result (nil for other answers), and the
// graph entry names them. POST /v1/query/batch writes the answers from
// them (writeBatch). Once the slot resolved, the entry comes back beside an
// error too (resolve).
func (s *Service) queryBatch(ctx context.Context, t Target, specs []BatchQuerySpec) (*graphEntry, []BatchAnswer, []*cfpq.Result, error) {
	e, p, err := s.index(ctx, t.key())
	if err != nil {
		if e == nil {
			return nil, nil, nil, err
		}
		return e.ge, nil, nil, err
	}
	answers := make([]BatchAnswer, len(specs))
	pairs := make([]*cfpq.Result, len(specs))
	reqs := make([]cfpq.Request, 0, len(specs))
	slot := make([]int, 0, len(specs)) // batch index → specs index
	v := e.ge.cur.Load()
	for i, spec := range specs {
		op := spec.Op
		if op == "" {
			op = "relation"
		}
		answers[i] = BatchAnswer{Op: op, Nonterminal: spec.Nonterminal}
		req, err := specRequest(e.ge, v, p, op, spec)
		if err != nil {
			answers[i].Error = err.Error()
			continue
		}
		reqs = append(reqs, req)
		slot = append(slot, i)
	}

	results := p.QueryBatch(ctx, reqs)
	for k, r := range results {
		i := slot[k]
		if r.Err != nil {
			answers[i].Error = r.Err.Error()
			continue
		}
		s.obs.queries.Inc()
		switch answers[i].Op {
		case "has":
			has := r.Result.Exists
			answers[i].Has = &has
		case "count", "count-from":
			count := r.Result.Count
			answers[i].Count = &count
		default: // relation, relation-from
			count := r.Result.Count
			answers[i].Count = &count
			pairs[i] = r.Result
		}
	}
	return e.ge, answers, pairs, nil
}

// specRequest translates one batch spec into a declarative Request.
func specRequest(ge *graphEntry, v *graphVersion, p *cfpq.Prepared, op string, spec BatchQuerySpec) (cfpq.Request, error) {
	switch op {
	case "has":
		req, err := ge.request(v, p, spec.Nonterminal, []string{spec.From}, []string{spec.To})
		req.Output = cfpq.OutputExists
		return req, err
	case "count", "relation", "count-from", "relation-from":
		sources := spec.Sources
		if (op == "count-from" || op == "relation-from") && sources == nil {
			// The -from ops read a missing source list as "no sources" (an
			// empty answer), not as unrestricted.
			sources = []string{}
		}
		req, err := ge.request(v, p, spec.Nonterminal, sources, spec.Targets)
		if op == "count" || op == "count-from" {
			req.Output = cfpq.OutputCount
		}
		return req, err
	default:
		return cfpq.Request{}, fmt.Errorf("server: unknown batch op %q", op)
	}
}

// --- mutation ---------------------------------------------------------

// EdgeSpec is one edge addressed by node names (or decimal ids). Unknown
// names are interned as new nodes, growing the graph.
type EdgeSpec struct {
	From  string `json:"from"`
	Label string `json:"label"`
	To    string `json:"to"`
}

// UpdateResult reports what an AddEdges call did. Its index counts and
// stats cover the registry's grammar indexes: the expr slots patched beside
// them are the service's own cache, and what other clients happened to ask
// does not show in a write's answer.
type UpdateResult struct {
	// Added is the number of edges inserted into the graph.
	Added int `json:"added"`
	// NewNodes is the number of nodes interned by this update.
	NewNodes int `json:"new_nodes"`
	// Patched counts cached indexes brought up to date incrementally.
	Patched int `json:"patched"`
	// Invalidated counts cached indexes dropped because their update was
	// abandoned (the memory budget); they rebuild on next use.
	Invalidated int `json:"invalidated"`
	// UpdateStats accumulates the incremental closure work across all
	// patched indexes.
	UpdateStats cfpq.Stats `json:"update_stats"`
}

// AddEdges inserts edges into the named graph and brings every cached
// index on that graph up to date with the incremental delta closure
// (Prepared.AddEdges) — edges that intern new nodes included.
func (s *Service) AddEdges(ctx context.Context, graphName string, specs []EdgeSpec) (UpdateResult, error) {
	if err := s.writable(); err != nil {
		return UpdateResult{}, err
	}
	recs := make([]store.EdgeRecord, len(specs))
	for i, spec := range specs {
		if spec.Label == "" {
			return UpdateResult{}, fmt.Errorf("server: edge %v has empty label", spec)
		}
		if spec.From == "" || spec.To == "" {
			// An empty token would intern as a node whose "name" cannot
			// round-trip through the durable store's name table.
			return UpdateResult{}, fmt.Errorf("server: edge %v has an empty endpoint", spec)
		}
		recs[i] = store.EdgeRecord{From: spec.From, Label: spec.Label, To: spec.To}
	}
	res, err := s.applyBatch(ctx, graphName, store.RecordTokens, recs, false, 0)
	if err == nil {
		s.obs.updates.Inc()
		s.obs.edgesAdded.Add(uint64(res.Added))
	}
	return res, err
}

// applyBatch is the one path an edge batch takes into a graph, whoever
// sent it: AddEdges (a local write: token records that land wherever the
// stream is) and ApplyReplicatedEdges (replicated: the leader's frame, which
// must land exactly at endSeq-len(recs)). Under the graph's writer lock it
// re-checks registry identity, validates the whole batch before the first
// mutation — a bad batch cannot leave the graph half-updated and cached
// indexes permanently out of sync with it — journals write-ahead, interns
// and adds the edges on a fork of the published edge set, and publishes
// the fork as the next version; then patchIndexes brings every cached index
// on the graph up to date, and a WAL the batch took past the store's
// threshold is folded. The callers have already rejected empty tokens.
func (s *Service) applyBatch(ctx context.Context, graphName string, kind store.RecordKind, recs []store.EdgeRecord, replicated bool, endSeq uint64) (UpdateResult, error) {
	ge, err := s.graphEntry(graphName)
	if err != nil {
		return UpdateResult{}, err
	}
	ge.writer.Lock()
	cur := ge.cur.Load()
	start := cur.seq
	if replicated {
		start = endSeq - uint64(len(recs))
	}
	if err := s.admitBatch(graphName, ge, cur, recs, replicated, start); err != nil {
		ge.writer.Unlock()
		return UpdateResult{}, err
	}
	if s.store != nil {
		// Write-ahead: the frame lands fsynced in the WAL — with the batch's
		// record kind, at the position this entry holds — before the first
		// in-memory mutation, under the writer lock so the WAL's record
		// order matches the order mutations were applied in: the store's
		// replay re-runs the interning this call performs below and must see
		// the same starting state. Readers keep reading cur meanwhile.
		if err := s.store.AppendReplicated(graphName, kind, recs, start+uint64(len(recs))); err != nil {
			ge.writer.Unlock()
			return UpdateResult{}, fmt.Errorf("server: journaling edges: %w", storeFault(err))
		}
	}
	next := cur.g.Fork()
	edges := make([]graph.Edge, len(recs))
	idsOnly := kind == store.RecordIDs
	for i, r := range recs {
		from := ge.names.Intern(next, r.From, idsOnly)
		to := ge.names.Intern(next, r.To, idsOnly)
		next.AddEdge(from, r.Label, to)
		edges[i] = graph.Edge{From: from, Label: r.Label, To: to}
	}
	res := UpdateResult{Added: len(edges), NewNodes: next.Nodes() - cur.g.Nodes()}
	ge.cur.Store(&graphVersion{g: next, seq: start + uint64(len(recs)), version: cur.version + 1, epoch: cur.epoch})
	ge.patching++
	ge.writer.Unlock()

	// The batch is durable and published, whatever becomes of the request
	// that carried it: the patch runs to the end even if the client has
	// gone (the request's trace values still ride along), so the memory
	// budget is the only reason an update is abandoned and its handle
	// dropped.
	due := s.patchIndexes(context.WithoutCancel(ctx), graphName, ge, edges, &res)
	if s.store != nil {
		// The batch that takes the WAL past -compact-bytes folds it, holding
		// no lock, and saves the graph's built indexes beside it. Best
		// effort: a failed fold leaves the WAL long but correct. A fold's
		// saves restart the slots' counts, so the checkpoint that follows
		// finds nothing due.
		if _, err := s.store.CompactIfDue(graphName, s.foldIndexes(graphName)); err != nil {
			s.obs.persistErrors.Inc()
		}
		if due {
			s.checkpoint(graphName)
		}
	}
	return res, nil
}

// admitBatch is applyBatch's validation of a batch onto cur, read-only
// under ge.writer.
func (s *Service) admitBatch(graphName string, ge *graphEntry, cur *graphVersion, recs []store.EdgeRecord, replicated bool, start uint64) error {
	// Re-check registry identity under the writer lock: installGraph
	// replaces entries while holding the old entry's writer, so once we own
	// it either ge is still current or it never will be again — journaling
	// into the replacement's WAL while mutating the orphaned entry would
	// permanently diverge durable from live state. (Taking s.mu under a
	// writer lock is safe: no path takes a writer while holding s.mu.)
	s.mu.Lock()
	current := s.graphs[graphName] == ge
	s.mu.Unlock()
	if !current {
		return fmt.Errorf("server: graph %q was replaced during the update; retry", graphName)
	}
	if replicated {
		if cur.seq != start {
			return fmt.Errorf("server: graph %q: replicated batch starts at seq %d but the local stream is at %d: %w",
				graphName, start, cur.seq, store.ErrSeqMismatch)
		}
		return nil
	}
	// Leader only: a numeral outside the node range is a typo'd id, not a
	// new node, and is rejected here — so it never reaches a WAL, where the
	// name table's Intern (the replay and follower rule) would grow the
	// graph to cover it.
	for _, r := range recs {
		for _, tok := range []string{r.From, r.To} {
			var re *graph.RangeError
			if _, err := ge.names.Lookup(tok); errors.As(err, &re) {
				return fmt.Errorf("server: node id %s out of range [0,%d)", tok, re.Nodes)
			}
		}
	}
	return nil
}

// patchIndexes walks the cache after a mutation (the ordering that, paired
// with index() registering entries before pinning the graph, excludes lost
// updates) and patches each built slot — with edges that name new nodes as
// with any others: the update grows the index. Updates racing on the same
// handle serialise inside Prepared; the delta closure only ever adds bits
// and re-applying present edges is a no-op, so the closure is confluent.
// Both AddEdges and the follower's replicated-apply path end here — a
// follower never runs a cold closure to absorb the stream. The
// caller counted itself into ge.patching when it published; returning
// counts it out and, when nobody else is between the two, advances
// ge.indexed to the stream position the indexes now cover. due reports
// whether a grammar slot's count of pairs derived since its file now
// calls for a checkpoint.
func (s *Service) patchIndexes(ctx context.Context, graphName string, ge *graphEntry, edges []graph.Edge, res *UpdateResult) (due bool) {
	s.mu.Lock()
	var entries []*indexEntry
	for k, e := range s.indexes {
		if k.Graph == graphName && e.ge == ge {
			// The identity check skips entries built on a replacement
			// graph registered under the same name while this call was
			// mutating the old one: their node ids are a different
			// namespace and our edges must not be patched into them.
			entries = append(entries, e)
		}
	}
	s.mu.Unlock()
	defer func() {
		ge.writer.Lock()
		if ge.patching--; ge.patching == 0 {
			ge.indexed.Store(ge.cur.Load().seq)
		}
		ge.writer.Unlock()
	}()

	for _, e := range entries {
		e.mu.Lock()
		// Unbuilt entries will pin the post-mutation graph when they build;
		// stale ones are already off the cache.
		if !e.stale && e.p != nil {
			// Held across the update closure on purpose: e.mu orders this
			// patch against the slot's build and other patches. Readers
			// come in through e.ready and are not behind it.
			info, err := e.p.AddEdges(ctx, edges...)
			s.obs.indexSwap.Observe(info.Swap.Seconds())
			if err != nil {
				s.noteErr(err)
				// An over-budget update was abandoned: the handle still
				// serves its last version, which lacks these edges. Drop
				// it so the next query rebuilds, and report it as
				// invalidated, not patched.
				e.invalidate()
			}
			if e.key.Expr == "" {
				res.UpdateStats.Add(info.Stats)
				if err != nil {
					res.Invalidated++
				} else {
					res.Patched++
					e.derived.Add(int64(info.Delta.Len()))
					due = due || e.due()
				}
			}
		}
		stale := e.stale
		key := e.key
		p := e.p
		e.mu.Unlock()
		if stale {
			s.mu.Lock()
			if s.indexes[key] == e {
				delete(s.indexes, key)
			}
			s.mu.Unlock()
			if p != nil {
				// Subscribers on an invalidated handle must not wait on a
				// stream nothing will publish to: close it so they
				// re-resolve (the SSE layer turns this into a terminal
				// resync event).
				p.Close()
			}
		}
	}
	return due
}

// --- statistics -------------------------------------------------------

// IndexStats describes one cached closure index.
type IndexStats struct {
	Graph   string `json:"graph"`
	Grammar string `json:"grammar"`
	Expr    string `json:"expr,omitempty"` // an expr slot's canonical expression
	Backend string `json:"backend"`
	// The handle's own statistics; Build is zero for a warm-started index.
	cfpq.PreparedStats
}

// Stats reports every cached index, sorted by (graph, grammar, expr,
// backend).
func (s *Service) Stats() []IndexStats {
	s.mu.Lock()
	entries := make([]*indexEntry, 0, len(s.indexes))
	for _, e := range s.indexes {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	out := make([]IndexStats, 0, len(entries))
	for _, e := range entries {
		if st, ok := e.stats(); ok {
			out = append(out, st)
		}
	}
	slices.SortFunc(out, func(a, b IndexStats) int {
		return cmp.Or(strings.Compare(a.Graph, b.Graph), strings.Compare(a.Grammar, b.Grammar),
			strings.Compare(a.Expr, b.Expr), strings.Compare(a.Backend, b.Backend))
	})
	return out
}

// IndexStatsFor returns the stats of one cached index, if it is built.
func (s *Service) IndexStatsFor(t Target) (IndexStats, bool) {
	s.mu.Lock()
	e := s.indexes[t.key()]
	s.mu.Unlock()
	if e == nil {
		return IndexStats{}, false
	}
	return e.stats()
}

// stats describes the slot's handle; ok is false while it is unbuilt or
// stale.
func (e *indexEntry) stats() (IndexStats, bool) {
	p := e.ready.Load()
	if p == nil {
		return IndexStats{}, false
	}
	return IndexStats{
		Graph: e.key.Graph, Grammar: e.key.Grammar, Expr: e.key.Expr, Backend: e.key.Backend,
		PreparedStats: p.Stats(),
	}, true
}

package cfpq

import (
	"context"
	"fmt"
	"io"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"cfpq/internal/core"
)

// Prepared is a compiled grammar bound to a graph with a cached,
// incrementally-maintained closure index — the unit a serving layer caches
// per (graph, grammar, backend). It is safe for concurrent use: queries
// run under a read lock and proceed in parallel; AddEdges takes the write
// lock, patches the index with the semi-naive delta closure, and
// transparently grows the matrices when edges enlarge the node set. This
// is the same caching/locking discipline cfpqd's query service uses —
// the service now holds Prepared handles instead of private machinery.
type Prepared struct {
	eng *Engine
	cnf *CNF

	mu      sync.RWMutex
	g       *Graph // owned by the Prepared; mutate only through AddEdges
	ix      *Index
	wal     WAL     // journal AddEdges tees into before mutating; may be nil
	subs    *subHub // live-query fan-out; created on first Subscribe/Close
	build   Stats   // the initial closure
	update  Stats   // accumulated incremental patches
	updates int     // number of AddEdges calls that patched
	dirty   bool    // a cancelled patch left consequences unpropagated
	queries atomic.Int64
}

// WAL is an append-only durability log a Prepared tees its mutations into
// (see AttachWAL). The store package's per-graph Log satisfies it.
type WAL interface {
	// AppendEdges journals edges durably; an error means nothing may be
	// considered persisted.
	AppendEdges(edges []Edge) error
}

// AttachWAL tees every subsequent AddEdges into w, write-ahead: the batch
// of genuinely new edges is journaled (and fsynced, for a durable log)
// before the graph or index is touched, and a journaling error fails the
// call with no in-memory effect. Attach at most one mutating handle per
// log — the log is a single edge stream and replay assumes one interning
// history. A nil w detaches.
func (p *Prepared) AttachWAL(w WAL) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wal = w
}

// CNF returns the compiled grammar the handle was prepared with.
func (p *Prepared) CNF() *CNF { return p.cnf }

// Backend returns the backend the cached index evaluates with.
func (p *Prepared) Backend() Backend { return p.eng.Backend() }

// Nodes returns the current node count of the bound graph.
func (p *Prepared) Nodes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.g.Nodes()
}

// Do answers a declarative Request from the handle's cached closure index
// — the cached-read strategy, which performs no closure work at all; the
// planner's other strategies evaluate from scratch and belong to
// Engine.Do. The request must not carry its own Graph, Grammar,
// Conjunctive, Expr, Options or EmptyPaths: the handle is bound to one
// compiled CFG and serves exactly its closure relation.
//
// Unlike Engine.Do (which rejects restriction nodes the graph does not
// have — a caller mistake when evaluating from scratch), restriction
// nodes outside the index's node range simply contribute no pairs,
// mirroring the handle's historic read methods under concurrent graph
// growth. Unknown non-terminals are an error.
//
// The returned Result's Pairs/Paths stream a point-in-time snapshot
// materialised under the read lock, so iterating them needs no lock and
// cannot deadlock against a concurrent AddEdges.
func (p *Prepared) Do(ctx context.Context, req Request) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.checkRequest(req); err != nil {
		return nil, err
	}
	start := time.Now()
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.queries.Add(1)
	res, err := p.doLocked(ctx, req)
	if res != nil {
		// A cached read runs no closure, but it still took time (lock wait
		// plus scan); stamp it so warm reads report their real latency.
		res.Stats.Duration = time.Since(start)
	}
	return res, err
}

// checkRequest validates a request against what a cached-index read can
// answer; it needs no lock.
func (p *Prepared) checkRequest(req Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if req.Graph != nil {
		return reqErr("graph", "Prepared.Do evaluates against the bound graph; drop the request's Graph")
	}
	if req.Grammar != nil || req.Conjunctive != nil {
		return reqErr("grammar", "Prepared.Do evaluates under the bound grammar; drop the request's Grammar")
	}
	if req.Expr != "" {
		return reqErr("expr", "RPQ requests compile a fresh grammar; evaluate them with Engine.Do")
	}
	if req.EmptyPaths {
		return reqErr("empty_paths", "the cached index holds the closure relation only; evaluate ε-decorated queries with Engine.Do")
	}
	if len(req.Options) > 0 {
		return reqErr("options", "per-call evaluation options do not apply to cached-index reads")
	}
	return nil
}

// cachedReadExplain is the Explain record of every Prepared answer.
func cachedReadExplain() Explain {
	return Explain{
		Strategy: StrategyCachedRead,
		Reason:   "answered from the prepared handle's cached closure index; no closure work",
	}
}

// doLocked answers one checked request; callers hold p.mu (read side
// suffices: only the index is consulted).
func (p *Prepared) doLocked(ctx context.Context, req Request) (*Result, error) {
	nt := req.Nonterminal
	if _, ok := p.cnf.Index(nt); !ok {
		return nil, fmt.Errorf("cfpq: unknown non-terminal %q", nt)
	}
	res := &Result{Explain: cachedReadExplain()}
	n := p.ix.Nodes()
	switch req.normOutput() {
	case OutputPaths:
		i, j := req.Sources[0], req.Targets[0]
		if i >= n || j >= n {
			return res, nil
		}
		// Enumerate one path past the limit so a clipped answer reports
		// Truncated — the same lookahead the pairs output uses. (Without a
		// Limit the enumerator's own default cap applies; hitting it is
		// not reported, matching Paths' documented contract.)
		opts := AllPathsOptions{MaxLength: req.MaxPathLength, MaxPaths: req.Limit}
		if req.Limit > 0 {
			opts.MaxPaths++
		}
		paths, err := p.ix.AllPathsContext(ctx, p.g, nt, i, j, opts)
		if err != nil {
			return nil, err
		}
		if req.Limit > 0 && len(paths) > req.Limit {
			paths = paths[:req.Limit]
			res.Truncated = true
		}
		res.Count = len(paths)
		res.paths = paths
	case OutputExists:
		if len(req.Sources) == 1 && len(req.Targets) == 1 {
			// The point lookup the serving hot path issues; O(1)-ish.
			i, j := req.Sources[0], req.Targets[0]
			res.Exists = i < n && j < n && p.ix.Has(nt, i, j)
			return res, nil
		}
		res.Exists = p.scanLocked(nt, req.Sources, req.Targets, 1) > 0
	case OutputCount:
		res.Count = p.scanLocked(nt, req.Sources, req.Targets, 0)
	default: // OutputPairs
		// Materialised under the held lock: the streamed pairs are a
		// consistent point-in-time snapshot (batch answers must all read
		// one index state), and iterating the Result needs no lock.
		// The scan looks one pair past the limit so a clipped answer can
		// report Truncated instead of silently passing for a complete one.
		lookahead := req.Limit
		if lookahead > 0 {
			lookahead++
		}
		pairs := p.pairsLocked(nt, req.Sources, req.Targets, lookahead)
		if req.Limit > 0 && len(pairs) > req.Limit {
			pairs = pairs[:req.Limit]
			res.Truncated = true
		}
		res.Count = len(pairs)
		res.pairs = pairs
	}
	return res, nil
}

// restrictionMask turns a restriction into a membership mask over the
// index's node range; nil stays nil (unrestricted) and out-of-range nodes
// are dropped (they can have no pairs).
func restrictionMask(n int, nodes []int) []bool {
	if nodes == nil {
		return nil
	}
	mask := make([]bool, n)
	for _, v := range nodes {
		if v >= 0 && v < n {
			mask[v] = true
		}
	}
	return mask
}

// inMask reports membership under an optional mask; nil means everything.
func inMask(mask []bool, v int) bool {
	return mask == nil || (v < len(mask) && mask[v])
}

// scanLocked counts the entries of R_nt satisfying the restriction,
// stopping early at limit when limit > 0; callers hold p.mu.
func (p *Prepared) scanLocked(nt string, sources, targets []int, limit int) int {
	m := p.ix.Matrix(nt)
	if m == nil {
		return 0
	}
	if sources == nil && targets == nil && limit == 0 {
		return p.ix.Count(nt)
	}
	srcMask := restrictionMask(p.ix.Nodes(), sources)
	tgtMask := restrictionMask(p.ix.Nodes(), targets)
	count := 0
	m.Range(func(i, j int) bool {
		if inMask(srcMask, i) && inMask(tgtMask, j) {
			count++
			if limit > 0 && count >= limit {
				return false
			}
		}
		return true
	})
	return count
}

// pairsLocked materialises the restricted relation in row-major order,
// stopping at limit when limit > 0; callers hold p.mu.
func (p *Prepared) pairsLocked(nt string, sources, targets []int, limit int) []Pair {
	m := p.ix.Matrix(nt)
	if m == nil {
		return nil
	}
	srcMask := restrictionMask(p.ix.Nodes(), sources)
	tgtMask := restrictionMask(p.ix.Nodes(), targets)
	var out []Pair
	m.Range(func(i, j int) bool {
		if !inMask(srcMask, i) || !inMask(tgtMask, j) {
			return true
		}
		out = append(out, Pair{I: i, J: j})
		return limit == 0 || len(out) < limit
	})
	return out
}

// Has reports whether (i, j) ∈ R_nt. Unknown non-terminals,
// out-of-range nodes and a cancelled ctx answer false. Sugar for an
// OutputExists Request.
func (p *Prepared) Has(ctx context.Context, nt string, i, j int) bool {
	res, err := p.Do(ctx, Request{
		Nonterminal: nt, Sources: []int{i}, Targets: []int{j}, Output: OutputExists,
	})
	return err == nil && res.Exists
}

// Count returns |R_nt|. Sugar for an OutputCount Request.
func (p *Prepared) Count(ctx context.Context, nt string) int {
	res, err := p.Do(ctx, Request{Nonterminal: nt, Output: OutputCount})
	if err != nil {
		return 0
	}
	return res.Count
}

// Counts returns |R_A| for every non-terminal A, keyed by name.
func (p *Prepared) Counts() map[string]int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.queries.Add(1)
	return p.ix.Counts()
}

// Relation returns R_nt as a sorted pair list. Sugar for an OutputPairs
// Request; Pairs streams the same materialised snapshot.
func (p *Prepared) Relation(ctx context.Context, nt string) []Pair {
	res, err := p.Do(ctx, Request{Nonterminal: nt})
	if err != nil {
		return nil
	}
	return res.AllPairs()
}

// Pairs streams R_nt in row-major order. The sequence is a point-in-time
// snapshot taken under the read lock; iteration itself holds no lock, so
// (unlike earlier versions of this API) methods of this Prepared may be
// called from inside the loop. Sugar for an OutputPairs Request.
func (p *Prepared) Pairs(ctx context.Context, nt string) iter.Seq[Pair] {
	res, err := p.Do(ctx, Request{Nonterminal: nt})
	if err != nil {
		return func(func(Pair) bool) {}
	}
	return res.Pairs()
}

// RelationFrom returns the pairs of R_nt whose first component is one of
// the given source nodes, in row-major order — the cached-index answer to
// the single-/few-source question Engine.QueryFrom evaluates from scratch.
// Out-of-range sources contribute nothing. Sugar for a source-restricted
// OutputPairs Request.
func (p *Prepared) RelationFrom(ctx context.Context, nt string, sources []int) []Pair {
	res, err := p.Do(ctx, Request{Nonterminal: nt, Sources: nonNilNodes(sources)})
	if err != nil {
		return nil
	}
	return res.AllPairs()
}

// CountFrom returns the number of pairs of R_nt whose first component is
// one of the given source nodes. Sugar for a source-restricted
// OutputCount Request.
func (p *Prepared) CountFrom(ctx context.Context, nt string, sources []int) int {
	res, err := p.Do(ctx, Request{
		Nonterminal: nt, Sources: nonNilNodes(sources), Output: OutputCount,
	})
	if err != nil {
		return 0
	}
	return res.Count
}

// PairsFrom streams the pairs of R_nt whose first component is one of the
// given source nodes, in row-major order — a point-in-time snapshot, like
// Pairs. Sugar for a source-restricted OutputPairs Request.
func (p *Prepared) PairsFrom(ctx context.Context, nt string, sources []int) iter.Seq[Pair] {
	res, err := p.Do(ctx, Request{Nonterminal: nt, Sources: nonNilNodes(sources)})
	if err != nil {
		return func(func(Pair) bool) {}
	}
	return res.Pairs()
}

// Paths yields distinct paths witnessing (nt, i, j) in nondecreasing
// length order, bounded by opts. The bounded enumeration runs up front
// (path extraction needs a consistent index), so breaking early saves only
// the consumer's work; keep MaxPaths tight. Sugar for an OutputPaths
// Request.
func (p *Prepared) Paths(ctx context.Context, nt string, i, j int, opts AllPathsOptions) iter.Seq[[]Edge] {
	res, err := p.Do(ctx, Request{
		Nonterminal: nt, Sources: []int{i}, Targets: []int{j}, Output: OutputPaths,
		Limit: opts.MaxPaths, MaxPathLength: opts.MaxLength,
	})
	if err != nil {
		return func(func([]Edge) bool) {}
	}
	return res.Paths()
}

// nonNilNodes normalises a restriction list for the sugar methods: they
// historically treated nil as "no sources" (an empty answer), while a
// Request reads nil as unrestricted, and they silently ignored negative
// ids, which a Request rejects.
func nonNilNodes(nodes []int) []int {
	out := make([]int, 0, len(nodes))
	for _, v := range nodes {
		if v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// UpdateInfo reports what one AddEdges call did.
type UpdateInfo struct {
	// Added is the number of edges genuinely new to the graph (duplicates
	// of existing edges are skipped).
	Added int `json:"added"`
	// Grown reports that the edges enlarged the node set and the index
	// matrices were resized in place.
	Grown bool `json:"grown,omitempty"`
	// Stats is the incremental closure work of the patch (or of the full
	// rebuild, when one was needed to repair a previously cancelled patch).
	Stats Stats `json:"stats"`
	// Delta is the per-nonterminal relation of pairs this call newly
	// derived — the incremental closure's own frontier union, or, when the
	// call repaired a cancelled patch by rebuilding, the rebuild's
	// new-minus-old difference. A cancelled call reports the pairs that did
	// land before cancellation; the repairing call reports exactly the
	// rest, so the concatenation of Deltas is always the exact history of
	// the relation. Nil only when the call errored before patching.
	Delta *Delta `json:"-"`
}

// AddEdges inserts edges into the bound graph and brings the cached index
// up to date with the incremental delta closure; edges referencing nodes
// beyond the current range transparently grow the graph and the index. The
// context is checked between closure passes. If a patch is cancelled
// mid-way — or stopped by the engine's memory budget
// (*MemoryBudgetError) — the index stays sound (every answered pair has a
// witness) but may miss consequences of the new edges; the next successful
// AddEdges repairs it with a full rebuild.
//
// With a WAL attached (AttachWAL), the new edges are journaled before any
// in-memory state changes; a journaling failure aborts the call cleanly.
func (p *Prepared) AddEdges(ctx context.Context, edges ...Edge) (UpdateInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	info := UpdateInfo{}
	fresh := make([]Edge, 0, len(edges))
	var seen map[Edge]bool
	for _, ed := range edges {
		if ed.From < p.g.Nodes() && ed.To < p.g.Nodes() && p.g.HasEdge(ed.From, ed.Label, ed.To) {
			continue
		}
		if seen[ed] {
			continue
		}
		if seen == nil {
			seen = map[Edge]bool{}
		}
		seen[ed] = true
		fresh = append(fresh, ed)
	}
	if p.wal != nil && len(fresh) > 0 {
		// Write-ahead: journal before mutating, so an acknowledged batch
		// is always recoverable and a failed one leaves no trace.
		//lint:allow cfpqlint/lockscope write-ahead protocol: the fsynced append MUST happen under the write lock so no reader sees un-journaled state
		if err := p.wal.AppendEdges(fresh); err != nil {
			return info, err
		}
	}
	for _, ed := range fresh {
		p.g.AddEdge(ed.From, ed.Label, ed.To)
	}
	info.Added = len(fresh)
	if p.g.Nodes() > p.ix.Nodes() {
		info.Grown = true
	}
	if p.dirty {
		// Repair: a cancelled patch left unpropagated consequences that a
		// delta seeded only with the new edges would never recover. Grow
		// the stale index first so the rebuild can be diffed against it:
		// subscribers must still see exactly the pairs the repair adds.
		p.ix.Grow(p.g.Nodes())
		old := p.ix
		ix, build, err := p.eng.newCore(&config{}).RunContext(ctx, p.g, p.cnf)
		if err != nil {
			return info, err
		}
		p.ix, p.dirty = ix, false
		p.update.Add(build)
		p.updates++
		info.Stats = build
		info.Delta = core.NewlyDerived(ix, old)
		p.publishLocked(info.Delta)
		return info, nil
	}
	p.ix.Grow(p.g.Nodes())
	st, delta, err := p.eng.newCore(&config{}).UpdateContext(ctx, p.ix, fresh...)
	p.update.Add(st)
	p.updates++
	info.Stats = st
	info.Delta = delta
	// Publish even on cancellation: the partial delta's pairs are in the
	// index (the update is sound, just unfinished), and the repair's
	// new-minus-old delta will exclude them — so subscribers see every
	// pair exactly once across the cancelled patch and its repair.
	p.publishLocked(delta)
	if err != nil {
		p.dirty = true
		return info, err
	}
	return info, nil
}

// WriteIndex serialises the handle's cached index in the CFPQIDX2 format
// under the read lock — a consistent point-in-time image a store can
// persist for warm-starting a later session (LoadIndex +
// PrepareFromIndex). Concurrent queries proceed; updates wait.
func (p *Prepared) WriteIndex(w io.Writer) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, err := p.ix.WriteTo(w)
	return err
}

// PreparedStats is a snapshot of the handle's cached-index statistics.
type PreparedStats struct {
	// Nodes is the index's matrix dimension.
	Nodes int `json:"nodes"`
	// Entries is the total number of set bits across the relation matrices.
	Entries int `json:"entries"`
	// Counts is the number of pairs in each non-terminal's relation
	// (CNF non-terminals included); Entries is its sum.
	Counts map[string]int `json:"counts"`
	// Build is the closure work of the initial full fixpoint.
	Build Stats `json:"build"`
	// Update accumulates the incremental closure work of every AddEdges.
	Update Stats `json:"update"`
	// Updates is the number of AddEdges calls absorbed (including calls
	// whose edges were all duplicates and needed no closure work).
	Updates int `json:"updates"`
	// Queries counts queries answered from the cached index.
	Queries int64 `json:"queries"`
}

// Stats returns a snapshot of the handle's statistics.
func (p *Prepared) Stats() PreparedStats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	counts := p.ix.Counts()
	entries := 0
	for _, c := range counts {
		entries += c
	}
	return PreparedStats{
		Nodes:   p.ix.Nodes(),
		Entries: entries,
		Counts:  counts,
		Build:   p.build,
		Update:  p.update,
		Updates: p.updates,
		Queries: p.queries.Load(),
	}
}

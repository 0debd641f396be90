package cfpq

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cfpq/internal/core"
)

// Prepared is a compiled grammar bound to a graph with a cached,
// incrementally-maintained closure index — the unit a serving layer caches
// per (graph, grammar, backend). It is safe for concurrent use, and readers
// never wait: the handle holds one published version (an edge set and the
// index that is its closure), immutable once published, behind an atomic
// pointer. A query loads that pointer and answers from the version without
// any lock. AddEdges is the one writer at a time: it builds the next
// version on a copy-on-write fork beside the readers (the closure only ever
// adds bits, so the version they hold stays a sound, self-consistent
// relation), and publishes it by a pointer store under the publish mutex,
// which subscribers joining take too; edges that enlarge the node set are
// an ordinary update (the incremental closure grows the matrices itself).
// This is the same caching discipline cfpqd's query service uses — the
// service holds Prepared handles instead of private machinery.
type Prepared struct {
	eng   *Engine
	cnf   *CNF
	build Stats // the initial closure

	// writer serialises AddEdges: one call at a time builds the next
	// version. No reader takes it, so the update closure runs under it
	// without stalling a query. It guards pending.
	writer sync.Mutex
	// pending holds the edges of abandoned updates: in the handle's graph,
	// but in no published index yet. The next update that succeeds
	// empties it; on an over-budget handle none does (see AddEdges).
	pending []Edge
	// owned: the current graph is the handle's own, to Fork and append
	// to — not the one it was given. Guarded by writer.
	owned bool

	cur     atomic.Pointer[version]
	queries atomic.Int64

	// mu orders publishing against subscribing: AddEdges holds it to store
	// the next version and fan its delta out, Subscribe to join the hub —
	// never across a closure. It guards hub.
	mu  sync.Mutex
	hub subHub
}

// version is one published state of a handle: immutable, so whoever holds
// the pointer reads it without a lock for as long as it likes. The next
// version is built on Graph.Fork (Clone, see Prepared.owned) and
// Index.Fork of this one's parts.
type version struct {
	g       *Graph // the edge set
	ix      *Index // the closure of g's edges minus the handle's pending ones
	num     uint64 // indexes published before this one
	update  Stats  // accumulated incremental updates
	updates int    // number of AddEdges calls absorbed
}

// newPrepared binds a first version to a handle.
func newPrepared(e *Engine, cnf *CNF, g *Graph, ix *Index, build Stats) *Prepared {
	p := &Prepared{eng: e, cnf: cnf, build: build}
	p.cur.Store(&version{g: g, ix: ix})
	return p
}

// CNF returns the compiled grammar the handle was prepared with.
func (p *Prepared) CNF() *CNF { return p.cnf }

// Backend returns the backend the cached index evaluates with.
func (p *Prepared) Backend() Backend { return p.eng.Backend() }

// pin returns the current version. The caller reads it lock-free; an
// AddEdges publishing meanwhile does not disturb it.
func (p *Prepared) pin() *version { return p.cur.Load() }

// Nodes returns the current node count of the bound graph.
func (p *Prepared) Nodes() int { return p.pin().g.Nodes() }

// Do answers a declarative Request from the handle's cached closure index
// — the cached-read strategy, which performs no closure work at all; the
// planner's other strategies evaluate from scratch and belong to
// Engine.Do. The request must not carry its own Graph, Grammar,
// Conjunctive, Expr or EmptyPaths: the handle is bound to one compiled CFG
// and serves exactly its closure relation.
//
// Unlike Engine.Do (which rejects restriction nodes the graph does not
// have — a caller mistake when evaluating from scratch), restriction
// nodes outside the index's node range simply contribute no pairs: the
// graph may grow under concurrent AddEdges. Unknown non-terminals and a
// cancelled context are errors.
//
// The answer is read from the version current when Do pinned it: a
// concurrent AddEdges neither delays it nor shows through it, and the
// returned Result's Pairs/Paths stream a materialised snapshot of that
// version, so iterating them needs no lock either.
func (p *Prepared) Do(ctx context.Context, req Request) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.checkRequest(req); err != nil {
		return nil, err
	}
	start := time.Now()
	v := p.pin()
	p.queries.Add(1)
	res, err := p.answer(ctx, v, req)
	if res != nil {
		// A cached read runs no closure, but it still took time (the pin
		// plus the scan); stamp it so warm reads report their real latency.
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
	return nil
}

// cachedReadExplain is the Explain record of every Prepared answer.
func cachedReadExplain() Explain {
	return Explain{
		Strategy: StrategyCachedRead,
		Reason:   "answered from the prepared handle's cached closure index; no closure work",
	}
}

// answer answers one checked request from a pinned version.
func (p *Prepared) answer(ctx context.Context, v *version, req Request) (*Result, error) {
	nt := req.Nonterminal
	if _, ok := p.cnf.Index(nt); !ok {
		return nil, fmt.Errorf("cfpq: unknown non-terminal %q", nt)
	}
	res := &Result{Explain: cachedReadExplain()}
	n := v.ix.Nodes()
	switch req.normOutput() {
	case OutputPaths:
		i, j := req.Sources[0], req.Targets[0]
		if i >= n || j >= n {
			return res, nil
		}
		// Enumerate one path past the limit so a clipped answer reports
		// Truncated — the same lookahead the pairs output uses. (Without a
		// Limit the enumerator's own default cap applies; hitting it is
		// not reported.)
		opts := AllPathsOptions{MaxLength: req.MaxPathLength, MaxPaths: req.Limit}
		if req.Limit > 0 {
			opts.MaxPaths++
		}
		paths, err := v.ix.AllPathsContext(ctx, v.g, nt, i, j, opts)
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
			res.Exists = i < n && j < n && v.ix.Has(nt, i, j)
			return res, nil
		}
		// Stopping at the first entry is finding one.
		res.Exists = !scan(v.ix, nt, sourceRows(req.Sources, n), req.Targets, func(int, int) bool { return false })
	case OutputCount:
		if req.Sources == nil && req.Targets == nil {
			res.Count = v.ix.Count(nt)
			return res, nil
		}
		scan(v.ix, nt, sourceRows(req.Sources, n), req.Targets, func(int, int) bool {
			res.Count++
			return true
		})
	default: // OutputPairs
		// Materialised from the pinned version: the streamed pairs are a
		// consistent point-in-time snapshot (batch answers must all read
		// one index state), and iterating the Result needs no lock.
		// The scan looks one pair past the limit so a clipped answer can
		// report Truncated instead of silently passing for a complete one.
		lookahead := req.Limit
		if lookahead > 0 {
			lookahead++
		}
		rows := sourceRows(req.Sources, n)
		var pairs []Pair
		if bound := pairsBound(v.ix, nt, rows, req.Targets, lookahead); bound > 0 {
			pairs = make([]Pair, 0, bound)
		}
		scan(v.ix, nt, rows, req.Targets, func(i, j int) bool {
			pairs = append(pairs, Pair{I: i, J: j})
			return lookahead == 0 || len(pairs) < lookahead
		})
		if req.Limit > 0 && len(pairs) > req.Limit {
			pairs = pairs[:req.Limit]
			res.Truncated = true
		}
		res.Count = len(pairs)
		res.pairs = pairs
	}
	return res, nil
}

// scan calls visit for the entries of R_nt satisfying the restriction, in
// row-major order, until visit returns false; it reports whether it ran to
// the end. A source restriction, given as sourceRows, reads just its rows —
// the cost of "what does this node reach" is that node's row, not the
// relation; only a read without one (nil rows) ranges over the whole
// matrix. nil targets are unrestricted; out-of-range targets can have no
// pairs and are dropped.
func scan(ix *Index, nt string, rows, targets []int, visit func(i, j int) bool) bool {
	m := ix.Matrix(nt)
	n := ix.Nodes()
	var inTargets []bool // nil = every column
	if targets != nil {
		inTargets = make([]bool, n)
		for _, j := range targets {
			if j < n {
				inTargets[j] = true
			}
		}
	}
	each := func(i, j int) bool { return (inTargets != nil && !inTargets[j]) || visit(i, j) }
	if rows == nil {
		done := true
		m.Range(func(i, j int) bool {
			done = each(i, j)
			return done
		})
		return done
	}
	for _, i := range rows {
		if !m.RangeRow(i, func(j int) bool { return each(i, j) }) {
			return false
		}
	}
	return true
}

// sourceRows is the rows a source restriction reads: its in-range sources,
// sorted and de-duplicated. nil (unrestricted) stays nil, and an empty
// restriction reads no row.
func sourceRows(sources []int, n int) []int {
	if sources == nil {
		return nil
	}
	rows := make([]int, 0, len(sources))
	for _, i := range sources {
		if i < n {
			rows = append(rows, i)
		}
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// pairsBound is the most pairs a scan of R_nt over rows can visit — the
// relation's nnz, or the lengths of the rows — capped at limit when limit
// is positive; the pairs slice of a read is allocated once at that size.
// It is 0 under a target restriction, which can leave a handful of pairs
// of a whole relation: such a read grows its slice as it goes.
func pairsBound(ix *Index, nt string, rows, targets []int, limit int) int {
	if targets != nil {
		return 0
	}
	m := ix.Matrix(nt)
	bound := 0
	if rows == nil {
		bound = m.Nnz()
	}
	for _, i := range rows {
		m.RangeRow(i, func(int) bool { bound++; return true })
	}
	if limit > 0 {
		bound = min(bound, limit)
	}
	return bound
}

// UpdateInfo reports what one AddEdges call did.
type UpdateInfo struct {
	// Added is the number of edges genuinely new to the graph (duplicates
	// of existing edges are skipped).
	Added int `json:"added"`
	// Grown reports that the edges enlarged the node set and the published
	// version's index matrices were resized to it by the update.
	Grown bool `json:"grown,omitempty"`
	// Stats is the incremental closure work of the call, whether or not
	// its result was published.
	Stats Stats `json:"stats"`
	// Delta is the per-nonterminal list of pairs the version this call
	// published holds beyond the previous one — the pairs the incremental
	// closure's passes derived, exactly what subscribers were pushed. A
	// call that published nothing (every edge a duplicate; or the update
	// was cancelled or stopped by the memory budget and abandoned) reports
	// an empty, non-nil Delta; the successful call that later absorbs an
	// abandoned update's edges reports their pairs too, so the
	// concatenation of Deltas is always the exact history of the relation.
	Delta *Delta `json:"-"`
	// Swap is how long the call held the publish mutex — the pointer
	// store and the subscription fan-out. Readers never wait for it;
	// only a subscriber joining can.
	Swap time.Duration `json:"-"`
}

// AddEdges inserts edges into the bound graph and publishes the version
// that holds them: the current index is forked, the fork is brought up to
// date with the incremental delta closure (which grows it first when the
// edges enlarge the node set), and the result replaces the current version
// in one swap. Calls serialise among
// themselves; queries, batches, WriteIndex and Stats proceed against the
// version they pinned throughout and see the update all at once or not at
// all.
//
// The context is checked between closure passes. An update that is
// cancelled — or stopped by the engine's memory budget
// (*MemoryBudgetError), which counts both live versions — is abandoned:
// the call returns the error with an empty Delta, nothing is pushed to
// subscribers, and every answer stays bit-identical to before the call.
// The edges are not lost: they wait in the handle's graph, and the next
// AddEdges — an empty one will do — runs the incremental update for them
// together with its own edges, publishing and pushing every pair exactly
// once.
//
// That retry recovers a cancelled update, not an over-budget one: the
// budget is the engine's and fixed for the handle's life, and the retry
// propagates a superset of the edges that did not fit. Such a handle keeps
// serving its last version while every later call adds its edges to the
// graph and to the waiting list — which grows without bound, one entry per
// edge accepted since — re-runs the update as far as the budget allows and
// returns the budget error again. Treat the first
// *MemoryBudgetError as final for the handle and re-Prepare the graph under
// a larger budget (cfpqd drops such a handle and rebuilds on the next
// query).
//
// Durability is the caller's: cfpqd journals a batch to its store before it
// calls AddEdges.
func (p *Prepared) AddEdges(ctx context.Context, edges ...Edge) (UpdateInfo, error) {
	p.writer.Lock()
	defer p.writer.Unlock()
	cur := p.pin()
	info := UpdateInfo{}
	fresh := make([]Edge, 0, len(edges))
	var seen map[Edge]bool
	for _, ed := range edges {
		if ed.From < cur.g.Nodes() && ed.To < cur.g.Nodes() && cur.g.HasEdge(ed.From, ed.Label, ed.To) {
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
	info.Added = len(fresh)
	info.Delta = core.EmptyDelta(cur.ix)
	next := &version{g: cur.g, ix: cur.ix, num: cur.num, update: cur.update, updates: cur.updates + 1}
	if len(fresh) > 0 {
		// The given graph's owner may Fork it too: one appender per line.
		if p.owned {
			next.g = cur.g.Fork()
		} else {
			next.g, p.owned = cur.g.Clone(), true
		}
		for _, ed := range fresh {
			next.g.AddEdge(ed.From, ed.Label, ed.To)
		}
	}
	seeds := append(p.pending, fresh...)
	var err error
	if len(seeds) > 0 {
		ix := cur.ix.Fork()
		var delta *Delta
		info.Stats, delta, err = p.eng.newCore().UpdateContext(ctx, ix, seeds...)
		if err == nil {
			ix.Detach()
			next.ix, next.num = ix, cur.num+1
			info.Delta, seeds = delta, nil
			info.Grown = ix.Nodes() > cur.ix.Nodes()
		}
		// On error the fork is dropped: the graph moves on, the index does
		// not, and seeds stay pending.
	}
	p.pending = seeds
	next.update.Add(info.Stats)
	// Materialise what subscribers are owed before taking the publish
	// mutex — a subscriber joining must not wait for it — whether or not
	// anyone is subscribed yet: the first may arrive while the update runs.
	var pairs map[string][]Pair
	if !info.Delta.Empty() {
		pairs = deltaPairs(info.Delta)
	}
	locked := time.Now()
	p.mu.Lock()
	p.cur.Store(next)
	if pairs != nil {
		p.hub.publish(pairs)
	}
	p.mu.Unlock()
	info.Swap = time.Since(locked)
	return info, err
}

// WriteIndex serialises the handle's cached index in the CFPQIDX4 format —
// a consistent image of the version current when it was called, which a
// store can persist for warm-starting a later session (LoadIndex +
// PrepareFromIndex). It holds no lock while writing: queries and updates
// proceed.
func (p *Prepared) WriteIndex(w io.Writer) error {
	_, err := p.pin().ix.WriteTo(w)
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
	// Update accumulates the incremental closure work of every AddEdges,
	// abandoned updates included.
	Update Stats `json:"update"`
	// Updates is the number of AddEdges calls absorbed (including calls
	// whose edges were all duplicates and needed no closure work).
	Updates int `json:"updates"`
	// Version is the number of index versions published since the handle
	// was prepared: one per AddEdges that had edges to propagate and
	// succeeded. Nodes, Entries and Counts describe this version.
	Version uint64 `json:"version"`
	// Queries counts queries answered from the cached index.
	Queries int64 `json:"queries"`
}

// Stats returns a snapshot of the handle's statistics.
func (p *Prepared) Stats() PreparedStats {
	v := p.pin()
	counts := v.ix.Counts()
	entries := 0
	for _, c := range counts {
		entries += c
	}
	return PreparedStats{
		Nodes:   v.ix.Nodes(),
		Entries: entries,
		Counts:  counts,
		Build:   p.build,
		Update:  v.update,
		Updates: v.updates,
		Version: v.num,
		Queries: p.queries.Load(),
	}
}

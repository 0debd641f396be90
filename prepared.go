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
	"cfpq/internal/matrix"
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
// concurrent AddEdges neither delays it nor shows through it. A pairs
// Result keeps that version and its Pairs walk the version's rows, which
// no later write changes, so iterating them needs no lock either.
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
	switch req.normOutput() {
	case OutputPaths:
		return res.readPaths(ctx, v.ix, v.g, nt, req)
	case OutputExists:
		if len(req.Sources) == 1 && len(req.Targets) == 1 {
			// The point lookup the serving hot path issues; O(1)-ish.
			i, j, n := req.Sources[0], req.Targets[0], v.ix.Nodes()
			res.Exists = i < n && j < n && v.ix.Has(nt, i, j)
			return res, nil
		}
	}
	// A pairs answer walks the pinned version's rows, which no later
	// AddEdges writes: it is a consistent point-in-time answer (batch
	// answers all read one index state) however late it is read.
	restrict(v.ix.Matrix(nt), req).answer(res, req)
	return res, nil
}

// readPaths answers an OutputPaths request from ix: the witnesses of
// (Sources[0], nt, Targets[0]), none when either node is outside ix.
func (res *Result) readPaths(ctx context.Context, ix *Index, g *Graph, nt string, req Request) (*Result, error) {
	i, j := req.Sources[0], req.Targets[0]
	if i >= ix.Nodes() || j >= ix.Nodes() {
		return res, nil
	}
	// Enumerate one path past the limit so a clipped answer reports
	// Truncated: unlike a relation's, an enumeration's size is not known
	// before it runs. (Without a Limit the enumerator's own default cap
	// applies; hitting it is not reported.)
	opts := AllPathsOptions{MaxLength: req.MaxPathLength, MaxPaths: req.Limit}
	if req.Limit > 0 {
		opts.MaxPaths++
	}
	paths, err := ix.AllPathsContext(ctx, g, nt, i, j, opts)
	if err != nil {
		return nil, err
	}
	if req.Limit > 0 && len(paths) > req.Limit {
		paths = paths[:req.Limit]
		res.Truncated = true
	}
	res.Count = len(paths)
	res.paths = paths
	return res, nil
}

// walk is a read of a relation matrix — a pinned version's R_nt, or the
// one an Engine.Do plan ended in: the entries in its rows (every row when
// rows is nil) and columns (every column when cols is nil), in row-major
// order. A row restriction reads just its rows — the cost of "what does
// this node reach" is that node's row, not the relation — and a column
// restriction is merged with each sorted row, so a read costs the rows it
// reads, never a scratch of the node count. Nothing writes the matrix once
// it is walked, so a walk reads the same entries however often and on
// however many goroutines it runs.
type walk struct {
	m    matrix.Bool
	rows []int // sorted, distinct and in range
	cols []int // sorted, distinct and in range
	n    int   // the entries a pairs answer yields: its Count
}

// restrict is the walk of m under req's restriction.
func restrict(m matrix.Bool, req Request) walk {
	n := m.Dim()
	return walk{m: m, rows: nodeSet(req.Sources, n), cols: nodeSet(req.Targets, n)}
}

// answer answers an exists, count or pairs request from the walk. A pairs
// answer is the walk itself: its size is known before it is read, so a
// clipped answer reports Truncated, and it builds no pair list.
func (w walk) answer(res *Result, req Request) {
	switch req.normOutput() {
	case OutputExists:
		// Stopping at the first entry is finding one.
		res.Exists = !w.scan(func(int, int) bool { return false })
	case OutputCount:
		res.Count = w.total()
	default: // OutputPairs
		res.Count = w.total()
		if req.Limit > 0 && res.Count > req.Limit {
			res.Count, res.Truncated = req.Limit, true
		}
		// A copy: only a pairs answer moves its walk to the heap.
		rel := w
		rel.n = res.Count
		res.rel = &rel
	}
}

// nodeSet is a restriction's in-range nodes, sorted and de-duplicated. nil
// (unrestricted) stays nil, and an empty restriction selects nothing.
func nodeSet(nodes []int, n int) []int {
	if nodes == nil {
		return nil
	}
	out := make([]int, 0, len(nodes))
	for _, i := range nodes {
		if i < n {
			out = append(out, i)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// scan calls visit for the walk's entries until visit returns false; it
// reports whether it ran to the end.
func (w walk) scan(visit func(i, j int) bool) bool {
	done := true
	row := func(i int, cols []int32) bool {
		want := w.cols
		for _, j := range cols {
			if want != nil {
				// Merge: pass the wanted columns before j, then j unless wanted.
				for len(want) > 0 && want[0] < int(j) {
					want = want[1:]
				}
				if len(want) == 0 {
					break
				}
				if want[0] != int(j) {
					continue
				}
			}
			if done = visit(i, int(j)); !done {
				return false
			}
		}
		return true
	}
	if w.rows == nil {
		matrix.RangeRows(w.m, row)
		return done
	}
	var buf []int32 // a dense row's columns
	for _, i := range w.rows {
		if buf = matrix.Row(w.m, i, buf); !row(i, buf) {
			return false
		}
	}
	return true
}

// total is the number of entries the walk visits: the relation's nnz when
// it is unrestricted, a counting pass over its rows otherwise.
func (w walk) total() int {
	if w.rows == nil && w.cols == nil {
		return w.m.Nnz()
	}
	t := 0
	w.scan(func(int, int) bool { t++; return true })
	return t
}

// pairs yields the walk's first n entries.
func (w *walk) pairs(yield func(Pair) bool) {
	left := w.n
	if left > 0 {
		w.scan(func(i, j int) bool {
			left--
			return yield(Pair{I: i, J: j}) && left > 0
		})
	}
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

// Package cfpq is a context-free path querying (CFPQ) library: it evaluates
// queries over edge-labelled directed graphs where the set of admissible
// paths is given by a context-free grammar over the edge labels, using the
// matrix-multiplication algorithm of Azimov & Grigorev ("Context-Free Path
// Querying by Matrix Multiplication").
//
// # Model
//
// A graph D = (V, E) has directed edges labelled from a finite alphabet. A
// context-free grammar G assigns a language L(G_A) to each non-terminal A.
// Under the relational query semantics, the answer to a query is the
// relation
//
//	R_A = { (m, n) | there is a path m π n with l(π) ∈ L(G_A) }.
//
// The single-path semantics additionally returns one witness path per pair;
// the all-path semantics enumerates all of them (infinitely many on cyclic
// graphs, so enumeration is bounded).
//
// # Request → planner → Result: the one query surface
//
// Every query is a declarative Request — a path language (a CFG
// non-terminal, an RPQ expression, or a conjunctive grammar), an optional
// restriction (Sources, Targets, or both — a single pair is one of each),
// and an Output (exists, count, pairs, or paths with limits) — evaluated
// by Engine.Do. A planner picks the cheapest strategy for the restriction
// instead of the caller hard-wiring one:
//
//   - full: the all-pairs closure (unrestricted queries, path
//     enumeration, conjunctive grammars);
//   - source-frontier: only the matrix rows reachable from the sources
//     (Explain.Saturated when that turns out to be all of them);
//   - target-frontier: the source frontier of the reversed graph under
//     the reversed grammar — the CFPQ duality (i,j) ∈ R(G,D) ⟺
//     (j,i) ∈ R(rev G, rev D) — answering "what reaches these nodes?";
//   - cached-read: a Prepared handle's index, no closure work at all.
//
// Every strategy ends in one relation matrix, and every exists, count or
// pairs answer is a walk of it — the restriction's rows, merged with its
// columns, clipped at the limit — the same walk on every plan: a
// target-frontier plan transposes the reversed run's target rows into the
// answer's matrix, and EmptyPaths sets (v, v) in it for a nullable start.
// A pairs Result holds that one matrix (for a source-frontier plan only
// the frontier's rows of it, for a target-frontier plan only the targets'
// columns), not the index it came from.
//
// The Result streams pairs/paths as iter.Seq, carries the closure Stats,
// and records the chosen plan in Explain:
//
//	eng := cfpq.NewEngine(cfpq.Sparse) // or cfpq.Dense
//	g := cfpq.NewGraph(3)
//	g.AddEdge(0, "a", 1)
//	g.AddEdge(1, "b", 2)
//	gram, _ := cfpq.ParseGrammar("S -> a S b | a b")
//	res, _ := eng.Do(ctx, cfpq.Request{
//		Graph: g, Grammar: gram, Nonterminal: "S", Targets: []int{2},
//	})
//	res.Explain.Strategy // cfpq.StrategyTargetFrontier
//	for pair := range res.Pairs() { ... } // [{0 2}]
//
// The algorithm reduces query evaluation to a Boolean-matrix transitive
// closure: one |V|×|V| Boolean matrix per non-terminal, with one matrix
// multiplication per grammar production per fixpoint pass. Engines run one
// closure loop — the semi-naive pass, which multiplies only the pairs the
// previous pass added against the full matrices and so walks exactly the
// paper's states T₀, T₁, …, whether it is seeded with a whole graph, a
// batch of new edges or a set of source rows; the paper's literal loop
// (every pass multiplies a full snapshot of the previous state) is the
// reference function Algorithm1, which tests, the ablation and
// examples/quickstart use and no Engine serves with. Beside Do stand the
// index-level APIs: Evaluate (the full Index), witness paths (SinglePath,
// ShortestPath, AllPaths), incremental maintenance (Update) and index
// persistence (LoadIndex with SaveIndex).
//
// # Batched requests
//
// Prepared.QueryBatch answers []Request from the handle's cached index, in
// order on the caller's goroutine, and all of them read the same index
// state, so a racing update is visible to the whole batch or none of it.
// A one-shot batch is Prepare followed by QueryBatch:
//
//	results := p.QueryBatch(ctx, []cfpq.Request{
//		{Nonterminal: "S", Output: cfpq.OutputCount},
//		{Nonterminal: "S", Sources: []int{v}},
//	})
//
// Per-request failures land in BatchResult.Err without failing the batch.
//
// # Prepared: cached, incrementally-maintained queries
//
// For repeated requests against one (graph, grammar) pair, Prepare binds
// the compiled grammar to the graph and caches the evaluated closure in a
// Prepared handle; Prepared.Do answers any number of concurrent requests
// from it (the cached-read strategy), and AddEdges absorbs edge updates
// with the incremental delta closure instead of re-evaluating — edges that
// grow the node set included: the update resizes the matrices itself:
//
//	p, _ := eng.Prepare(ctx, g, gram)
//	res, _ := p.Do(ctx, cfpq.Request{Nonterminal: "S", Sources: []int{0, 1}})
//	for pair := range res.Pairs() { ... } // walks the version res pinned
//	ok, _ := p.Do(ctx, cfpq.Request{
//		Nonterminal: "S", Sources: []int{0}, Targets: []int{2}, Output: cfpq.OutputExists,
//	}) // ok.Exists
//	p.AddEdges(ctx, cfpq.Edge{From: 2, Label: "a", To: 7}) // patched, not rebuilt
//
// Concurrency: one writer, readers pin a version, publish by swap. The
// handle holds one published version — an edge set and the index that is
// its closure — immutable once published. Do, QueryBatch (one version for
// the whole batch), WriteIndex and Stats pin it with a pointer load and
// read it without a lock. AddEdges calls serialise on a writers-only
// mutex: fork the current index copy-on-write (sparse matrices share their
// rows; a matrix's row list is copied when the update first writes it), run
// the update closure on the fork, and store the result under a publish
// mutex — held for the pointer store and the subscription push,
// microseconds, and taken by Subscribe too, never by a reader. The closure only
// ever adds bits, so the version a reader holds stays a sound,
// self-consistent relation for as long as it holds it. Readers never wait
// for a closure; a cancelled or over-budget update is abandoned — nothing
// published, nothing pushed, answers unchanged — and its edges wait in the
// handle's graph for the next AddEdges to propagate with its own.
//
// # Live queries
//
// A standing Request can be subscribed instead of polled:
// Prepared.Subscribe registers it and returns a Subscription delivering
// one PairBatch per AddEdges that derives new matching pairs — the pairs
// the incremental closure's passes derived (what UpdateInfo.Delta
// exposes), never a diff of full results:
//
//	sub, _ := p.Subscribe(ctx, cfpq.Request{Nonterminal: "S", Targets: tgts})
//	for batch := range sub.Batches() { ... } // batch.Pairs: just-derived pairs
//
// Deliveries start at the first update after registration, so to seed
// state without a gap, Subscribe first, then run the same Request through
// Do and union batches on top (an update racing the Do may appear in both
// — a harmless duplicate under set semantics, never a hole). Slow
// consumers never block AddEdges: each subscription
// buffers a bounded number of batches, and one that falls behind has
// batches dropped with the gap reported in-band (PairBatch.Resync) —
// drop-with-resync, not backpressure. An abandoned update (cancelled, or
// over the memory budget) pushes nothing; the AddEdges that absorbs its
// edges pushes their pairs, so across a cancellation and its retry every
// pair arrives exactly once.
// SubscribeFrom resumes after a known sequence number (the Last-Event-ID
// contract of cfpqd's POST /v1/subscribe SSE route, which followers serve
// too — fed by the replicated-apply path, and which streams this
// Subscription as it is, its counts aggregated on /metrics); Prepared.Close
// ends every subscription so consumers learn their handle is gone.
//
// # Removed methods → Request
//
// The methods that once stood beside Do are gone; each is one Request:
//
//	Engine.Query(g, gram, "S")            = Engine.Do(Request{Graph: g, Grammar: gram, Nonterminal: "S"})
//	Engine.QueryFrom(..., srcs)           = Engine.Do(Request{..., Sources: srcs})
//	Engine.QueryTo(..., tgts)             = Engine.Do(Request{..., Targets: tgts})
//	Engine.RPQ(g, expr)                   = Engine.Do(Request{Graph: g, Expr: expr})
//	Engine.QueryConjunctive(g, cg, "S")   = Engine.Do(Request{Graph: g, Conjunctive: cg, Nonterminal: "S"})
//	Engine.QueryBatch(g, gram, reqs)      = Prepare(g, gram), then Prepared.QueryBatch(reqs)
//	Prepared.Has("S", i, j)               = Prepared.Do(Request{Nonterminal: "S", Sources: []int{i}, Targets: []int{j}, Output: OutputExists})
//	Prepared.Count/CountFrom("S", srcs)   = Prepared.Do(Request{Nonterminal: "S", Sources: srcs, Output: OutputCount})
//	Prepared.Relation/Pairs("S")          = Prepared.Do(Request{Nonterminal: "S"})
//	Prepared.RelationFrom/PairsFrom(srcs) = Prepared.Do(Request{Nonterminal: "S", Sources: srcs})
//	Prepared.Paths("S", i, j, opts)       = Prepared.Do(Request{Nonterminal: "S", Sources: []int{i}, Targets: []int{j}, Output: OutputPaths, Limit: opts.MaxPaths, MaxPathLength: opts.MaxLength})
//	Prepared.Counts()                     = Prepared.Stats().Counts
//	WithEmptyPaths()                      = Request.EmptyPaths
//
// Three behaviours differ from the removed readers. Do returns errors they
// swallowed (Count answered 0 and Has false for an unknown non-terminal or
// a cancelled context). A nil Sources is unrestricted, so the "no sources"
// the From readers read nil as is Sources: []int{}. A negative node id is
// a *RequestError, not silently dropped. Evaluation options belong to the
// engine: a call that needs another memory budget runs on a second Engine.
//
// # Observability
//
// Every evaluation can narrate itself, in the style of
// httptrace.ClientTrace: WithTraceContext attaches a Trace to a context,
// and its Pass hook fires one PassEvent per closure pass of every
// evaluation run under that context — Prepare's build and AddEdges'
// patches included — carrying phase ("full", "frontier" or "update"),
// pass index, Boolean products, each non-terminal's relation size
// before/after (the deltas telescope to exactly the pairs the evaluation
// derived), frontier saturation, estimated matrix bytes and wall time.
// Setting Request.Trace collects the events onto Result.Explain.Passes.
// A disabled trace costs the closure loop one nil test per pass and no
// allocations. Result.Stats reports Duration and PeakBytes on every
// path, cached reads included. cmd/cfpq prints the pass table with
// -trace; cmd/cfpqd serves Prometheus metrics at GET /metrics, tags
// every request with an X-Request-ID (the client's, when it is 1 to 64
// visible ASCII bytes, else a minted one), logs it as one line in slog's
// text format, and returns a slot build's pass table to a query that sets
// "trace".
//
// # Memory budgets
//
// WithMemoryBudget bounds the estimated matrix footprint of every closure
// an engine runs — NewEngine(backend, cfpq.WithMemoryBudget(n)) — Do,
// Prepare and every incremental patch alike. An evaluation that would
// exceed the budget fails fast between passes with a typed
// *MemoryBudgetError instead of thrashing the process — conjunctive
// requests, SinglePath and ShortestPath included: they run the same
// closure. An update's estimate counts both
// live versions (the fork's unshared storage beside the one readers hold)
// and is taken at the dimension its edges grow the index to, before it is
// grown — a refused update has allocated nothing. An over-budget update is
// abandoned like a cancelled one — the handle keeps serving its last
// version, and since a handle's budget is its engine's, it takes a
// re-Prepare under a larger budget to move on (cmd/cfpqd drops the handle,
// answers the next query's rebuild with HTTP 413 if that does not fit
// either).
//
// # Serving queries
//
// cmd/cfpqd serves CFPQs over HTTP: it registers named graphs (N-Triples
// or edge-list documents) and grammars, and caches one Prepared handle per
// (graph, grammar, backend) combination — an RPQ expression's right-linear
// grammar included — the HTTP layer is registry and naming only; caching,
// locking and incremental updates are the public Prepared machinery. The
// registry follows the same discipline as a handle: each graph is one
// published version that readers load with an atomic pointer, and only
// its writers take its lock — held across the fsynced WAL append, so no
// reader waits on a write. A typical session:
//
//	cfpqd -addr :8080 &
//	curl -X PUT --data-binary @wine.nt 'localhost:8080/v1/graphs/wine?format=ntriples'
//	curl -X PUT --data-binary 'S -> subClassOf_r S subClassOf | subClassOf_r subClassOf' \
//	     localhost:8080/v1/grammars/samegen
//	curl -X POST -d '{"graph":"wine","grammar":"samegen","nonterminal":"S","output":"count"}' \
//	     localhost:8080/v1/query                   # declarative request; answer carries "explain"
//	curl -X POST -d '{"graph":"wine","grammar":"samegen","nonterminal":"S","sources":["n1","n2"]}' \
//	     localhost:8080/v1/query                   # pairs leaving n1 or n2
//	curl -X POST -d '{"graph":"wine","grammar":"samegen","queries":[{"op":"count","nonterminal":"S"}]}' \
//	     localhost:8080/v1/query/batch
//	curl -X POST -d '{"edges":[{"from":"a","label":"subClassOf","to":"b"}]}' \
//	     localhost:8080/v1/graphs/wine/edges
//	curl localhost:8080/v1/stats       # build vs incremental-update products, per-nonterminal counts
//	curl localhost:8080/debug/vars     # the /metrics counters as JSON, per-strategy included
//
// A pairs answer streams: its count comes from the pinned version first,
// then its pairs are walked from that version's rows to the connection a
// 32 KiB chunk at a time, so a pairs read holds at most a chunk of its answer.
// The service itself lives in internal/server and can be embedded
// in-process; cmd/cfpqd is a thin HTTP shell around it.
//
// # Durability and warm start
//
// `cfpqd -data-dir` persists everything the cost model says is worth
// keeping — above all the evaluated closure indexes, the expensive
// artifact of this paper's algorithm. The on-disk store (internal/store)
// holds per-graph snapshots, grammar texts, index files stamped with the
// edge-stream position they cover, and an append-only WAL of edge
// additions with CRC-framed, fsynced records. Mutations are write-ahead:
// the WAL record is durable before the in-memory graph or any cached
// index changes; the service holds the one graph in memory, the store
// only its journal, which the batch that takes it past -compact-bytes
// folds into a fresh snapshot before it returns. On restart each graph is folded once from its snapshot
// and WAL (a torn tail truncated to the last good record), and every saved
// index restored as a live Prepared handle — indexes behind the recovered
// stream are patched forward with the incremental delta closure, so no
// closure re-runs from scratch (go run ./benchmark times the restart as
// recovery_s beside the cold build's setup_s).
//
// Library users compose the same pieces directly:
//
//	p.WriteIndex(w)                         // persist a handle's index (CFPQIDX4)
//	ix, _ := eng.LoadIndex(r, cnf)          // reload it (backend recorded in the header)
//	p, _ := eng.PrepareFromIndex(g, cnf, ix) // serve it — Build stats stay zero
//	st.Log(name).AppendEdges(edges)         // journal a batch before p.AddEdges
//
// # Replication
//
// The same WAL doubles as a replication stream. `cfpqd -follow
// <leader-url>` runs a read replica (internal/replica): it bootstraps
// graphs and grammars from the leader's snapshots, then tails the leader's
// WAL over HTTP long-polls and applies each CRC-framed batch exactly the
// way a warm start would — journaled write-ahead into its own store, then
// delta-patched into every cached index; a follower never re-runs a
// closure to absorb replicated writes. Replication is asynchronous with
// measured staleness (applied seq vs leader seq, pending WAL bytes, lag
// age) reported by GET /v1/replication/status; /readyz turns 503 when a
// follower bootstraps, loses its leader, or lags beyond -max-lag, and
// POST /v1/promote detaches it into a writable leader.
//
// # Static analysis
//
// Two cross-cutting invariants — no blocking work under a guarded mutex,
// caller contexts threaded end to end — are enforced by two custom
// analyzers in internal/lint, packaged as the cmd/cfpqlint multichecker and
// run in CI:
//
//	go run ./cmd/cfpqlint ./...
//
// Deliberate exceptions carry an in-source justification via
// `//lint:allow cfpqlint/<name> <why>`; the README's "Static analysis"
// section documents each analyzer and the directive's scope. Two more are
// measured by tests rather than checked by syntax: write-ahead journaling
// (a failed journal leaves no trace in the service) and an allocation-free
// disabled trace (a per-pass malloc bound on the closure).
//
// Subpackages under internal/ implement the machinery: grammars and CNF
// (internal/grammar), graphs, N-Triples and edge lists (internal/graph),
// Boolean matrix kernels (internal/matrix), the closure engine and path
// semantics (internal/core), the concurrent query service
// (internal/server), the durable store — WAL, snapshots, compaction
// (internal/store), WAL shipping and follower apply (internal/replica),
// the Hellings and GLL baselines (internal/baseline),
// the paper's evaluation datasets (internal/dataset) and the table and
// ablation harness (internal/bench) — all of which evaluate through the
// public Engine.
package cfpq

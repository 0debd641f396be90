package main

// The traced run. The program under test carries no request tracing yet, so
// the layers are seen from outside in: the same generated ops are replayed
// at each entry depth, in this process, against identically loaded state,
// and every call into a layer's public functions is wrapped in a span.
//
//	depth 0  client          real HTTP to the child (recorded by the workload)
//	depth 1  server.handler  server.Handler(svc).ServeHTTP on a Service + store.Open
//	depth 2  server.service  Service.Do / AddEdges / ApplyReplicatedEdges
//	depth 3  cfpq            Engine.PrepareCNF, Prepared.Do/AddEdges/WriteIndex, Engine.Do
//	depth 4  core            Init, CloseContext, UpdateContext, RunFromContext
//	depth 5  matrix          AddMul, Pairs on the converged operands
//
// Side spans time grammar, graph, store and encode calls. The spans of one op
// share its id at every depth, so a layer's self time is taken op by op: its
// span minus the spans of the layers it calls, then the median over the ops.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cfpq"
	"cfpq/internal/core"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
	"cfpq/internal/rpq"
	"cfpq/internal/server"
	"cfpq/internal/store"
)

// span is one timed call at a layer boundary. Spans of one op share Op and
// ID across depths; Parent names the span one layer out that causes it.
type span struct {
	Name    string `json:"name"`
	Depth   int    `json:"depth"`
	Parent  string `json:"parent,omitempty"`
	Op      string `json:"op"`
	ID      int    `json:"id"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// sideDepth marks spans of the layers beside the main call chain.
const sideDepth = -1

// parentOf is the call chain the replays peel apart.
var parentOf = map[string]string{
	"server.handler":      "client",
	"server.service":      "server.handler",
	"server.encode":       "server.handler",
	"cfpq.prepare":        "server.service",
	"cfpq.do":             "server.service",
	"cfpq.write_index":    "server.service",
	"cfpq.addedges":       "server.service",
	"cfpq.addedges_sub":   "server.service",
	"cfpq.publish":        "cfpq.addedges_sub",
	"store.append":        "server.service",
	"store.save_index":    "server.service",
	"graph.clone":         "server.service",
	"replica.tail":        "server.service",
	"replica.apply":       "server.service",
	"core.init":           "cfpq.prepare",
	"core.close":          "cfpq.prepare",
	"core.update":         "cfpq.addedges",
	"core.frontier":       "cfpq.do",
	"matrix.addmul_round": "core.close",
	"matrix.pairs":        "cfpq.do",
}

type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span; a nil log is tracing switched off.
func (l *spanLog) add(name string, depth int, op string, id int, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name, depth, parentOf[name], op, id, start.Sub(l.t0).Nanoseconds(), d.Nanoseconds()})
	l.mu.Unlock()
}

// time runs fn inside a span.
func (l *spanLog) time(name string, depth int, op string, id int, fn func()) {
	start := time.Now()
	fn()
	l.add(name, depth, op, id, start, time.Since(start))
}

// by groups the spans' durations by name and op, keyed by op id. The
// replays give the spans of one op the same id at every depth, so a layer's
// self time can be taken op by op.
func (l *spanLog) by() map[[2]string]map[int]time.Duration {
	out := map[[2]string]map[int]time.Duration{}
	for _, s := range l.spans {
		k := [2]string{s.Name, s.Op}
		if out[k] == nil {
			out[k] = map[int]time.Duration{}
		}
		out[k][s.ID] = time.Duration(s.DurNs)
	}
	return out
}

// traceInputs is what a workload hands the replays: its inputs, the spans
// its depth-0 window recorded, and the state its op streams derive from.
type traceInputs struct {
	inputs    []*input
	spans     *spanLog
	reads     *readState // serve_read and serve_write
	batchSeed int64      // serve_write
}

// allocs measures what fn allocates. The replays run one at a time in an
// otherwise idle process, so the counts are fn's own and repeat exactly.
func allocs(fn func()) (bytes, mallocs uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

// inproc is the program's serving stack loaded into this process: a store
// on its own directory, a Service attached to it, and the HTTP handler.
type inproc struct {
	st  *store.Store
	svc *server.Service
	h   http.Handler
}

func (e *env) newInproc(tag string) (*inproc, error) {
	dir := filepath.Join(e.runDir, "trace-"+tag)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	svc := server.New()
	if err := svc.AttachStore(e.ctx, st); err != nil {
		st.Close()
		return nil, err
	}
	// cfpqd logs one line per request; the replay pays for formatting one
	// too, so depth 1 and the child differ by the wire alone.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	return &inproc{st, svc, server.Handler(svc, server.WithRequestLog(logger))}, nil
}

func (p *inproc) close() { p.st.Close() }

func (p *inproc) serve(method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// load uploads the inputs through the handler and builds each index, as the
// workload's set-up does to the child.
func (p *inproc) load(inputs []*input) error {
	for _, in := range inputs {
		for _, req := range [][3]string{
			{http.MethodPut, "/v1/graphs/" + in.name + "?format=edgelist", string(in.edgeList)},
			{http.MethodPut, "/v1/grammars/" + in.grammarName, in.grammarText},
			{http.MethodPost, "/v1/query", string(countBody(in))},
		} {
			if code, out := p.serve(req[0], req[1], []byte(req[2])); code != http.StatusOK {
				return fmt.Errorf("trace: %s %s: status %d: %s", req[0], req[1], code, out)
			}
		}
	}
	return nil
}

// tracer runs the replays of one workload and derives its per-layer metrics.
type tracer struct {
	e      *env
	res    *result
	log    *spanLog
	rounds int // replays of each cold op
	reads  int // read ops replayed per depth
	writes int // write batches replayed per depth

	// What layersOf leaves behind for the op replays, by case name.
	graphs   map[string]*graph.Graph
	ids      map[string]map[string]int
	cnfs     map[string]*grammar.CNF
	prepared map[string]*cfpq.Prepared
	count    map[string]map[string]float64 // exact counts, by metric then case
}

func (e *env) traceLayers(res *result, ti *traceInputs) error {
	t := &tracer{e: e, res: res, log: ti.spans, rounds: 5, reads: 2000, writes: 200,
		graphs: map[string]*graph.Graph{}, ids: map[string]map[string]int{}, cnfs: map[string]*grammar.CNF{},
		prepared: map[string]*cfpq.Prepared{}, count: map[string]map[string]float64{}}
	if e.smoke {
		t.rounds, t.reads, t.writes = 2, 100, 30
	}
	for _, in := range ti.inputs {
		if err := t.layersOf(in); err != nil {
			return err
		}
	}
	var err error
	switch res.Workload {
	case "cold_deep", "cold_wide":
		err = t.replayCold(ti.inputs)
	case "serve_read":
		err = t.replayReads(ti.reads)
	case "serve_write":
		if err = t.replayReads(ti.reads); err == nil {
			err = t.replayWrites(ti.reads, ti.batchSeed)
		}
	}
	if err != nil {
		return err
	}
	t.derive(ti.inputs)
	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.name]; !ok {
			res.layer(d.name, 0, 0)
		}
	}
	raw, err := json.Marshal(map[string]any{"workload": res.Workload, "seed": e.seed, "spans": t.log.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, "trace-"+res.Workload+".json"), raw, 0o644)
}

func (t *tracer) setCount(metric, kase string, v float64) {
	if t.count[metric] == nil {
		t.count[metric] = map[string]float64{}
	}
	t.count[metric][kase] = v
}

// layersOf replays one input's cold build from depth 3 down, and times the
// grammar, graph and store calls a set-up and a recovery make for it.
func (t *tracer) layersOf(in *input) error {
	ctx, l, op := t.e.ctx, t.log, in.name
	var gr *grammar.Grammar
	var cnf *grammar.CNF
	var g *graph.Graph
	var ids map[string]int
	var err error
	for r := 0; r < t.rounds; r++ {
		l.time("grammar.parse", sideDepth, op, r, func() { gr, err = grammar.ParseString(in.grammarText) })
		if err != nil {
			return err
		}
		l.time("grammar.cnf", sideDepth, op, r, func() { cnf, err = grammar.ToCNF(gr) })
		if err != nil {
			return err
		}
		l.time("graph.load_edgelist", sideDepth, op, r, func() { g, ids, err = graph.LoadEdgeList(bytes.NewReader(in.edgeList)) })
		if err != nil {
			return err
		}
	}
	rules := len(cnf.Binary)
	for _, as := range cnf.TermRules {
		rules += len(as)
	}
	t.setCount("grammar.cnf_rules", op, float64(rules))
	t.graphs[op], t.ids[op], t.cnfs[op] = g, ids, cnf

	dir := filepath.Join(t.e.runDir, "trace-store-"+op)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer func() { st.Close() }()
	l.time("store.create_graph", sideDepth, op, 0, func() { err = st.CreateGraph(op, g, graph.NodeNames(g.Nodes(), ids)) })
	if err != nil {
		return err
	}
	if err := st.SaveGrammar(in.grammarName, in.grammarText); err != nil {
		return err
	}

	eng := cfpq.NewEngine(cfpq.Sparse)
	ce := core.NewEngine(core.WithBackend(matrix.Sparse()))
	var ix *core.Index
	var stats core.Stats
	var indexBytes int
	for r := 0; r < t.rounds; r++ {
		var snap *graph.Graph
		l.time("graph.clone", sideDepth, op, r, func() { snap = g.Clone() })
		var p *cfpq.Prepared
		l.time("cfpq.prepare", 3, op, r, func() { p, err = eng.PrepareCNF(ctx, snap, cnf) })
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		l.time("cfpq.write_index", 3, op, r, func() { err = p.WriteIndex(&buf) })
		if err != nil {
			return err
		}
		indexBytes = buf.Len()
		l.time("store.save_index", sideDepth, op, r, func() { err = st.SaveIndex(op, in.grammarName, "sparse", 0, buf.Bytes()) })
		if err != nil {
			return err
		}
		var res *cfpq.Result
		l.time("cfpq.do", 3, op, r, func() { res, err = p.Do(ctx, cfpq.Request{Nonterminal: startNT, Output: cfpq.OutputCount}) })
		if err == nil && res.Count != len(in.relation) {
			err = fmt.Errorf("trace: depth 3 counts %d pairs on %s, the oracle %d", res.Count, op, len(in.relation))
		}
		t.res.attempt(err)
		t.prepared[op] = p

		l.time("core.init", 4, op, r, func() { ix = ce.Init(g, cnf) })
		bytes, mallocs := allocs(func() {
			l.time("core.close", 4, op, r, func() { stats, err = ce.CloseContext(ctx, ix) })
		})
		if err != nil {
			return err
		}
		t.setCount("core.close_alloc_mb", op, float64(bytes)/1e6)
		t.setCount("core.close_mallocs", op, float64(mallocs))
	}
	t.setCount("core.passes", op, float64(stats.Iterations))
	t.setCount("core.products", op, float64(stats.Products))
	t.setCount("core.peak_mb", op, float64(stats.PeakBytes)/1e6)
	t.setCount("matrix.index_mb", op, float64(ix.Bytes())/1e6)
	entries := 0
	for _, n := range ix.Counts() {
		entries += n
	}
	t.setCount("index_entries", op, float64(entries))
	t.setCount("index_bytes", op, float64(indexBytes))

	// The pairs each product derived come from the program's own per-pass
	// events, collected in one extra closure so the timed ones stay clean.
	newBits := 0
	traced := core.NewEngine(core.WithBackend(matrix.Sparse()), core.WithTracer(&core.Trace{Pass: func(ev core.PassEvent) {
		if ev.Pass > 0 {
			newBits += ev.TotalDelta()
		}
	}}))
	if _, err := traced.CloseContext(ctx, traced.Init(g, cnf)); err != nil {
		return err
	}
	t.setCount("core.new_bits", op, float64(newBits))

	// Depth 5: one round of every rule's product over the converged index,
	// and the extraction of the start relation.
	for r := 0; r < t.rounds; r++ {
		bytes, mallocs := allocs(func() {
			l.time("matrix.addmul_round", 5, op, r, func() {
				for _, rule := range cnf.Binary {
					ix.Matrix(cnf.Names[rule.A]).AddMul(ix.Matrix(cnf.Names[rule.B]), ix.Matrix(cnf.Names[rule.C]))
				}
			})
		})
		t.setCount("matrix.addmul_round_alloc_kb", op, float64(bytes)/1e3)
		t.setCount("matrix.addmul_round_allocs", op, float64(mallocs))
		l.time("matrix.pairs", 5, op, r, func() { matrix.Pairs(ix.Matrix(startNT)) })
	}

	// What a restart pays: reopen the store, load the saved index; then what
	// a clean shutdown pays: fold everything into a snapshot.
	if err := st.Close(); err != nil {
		return err
	}
	l.time("store.open", sideDepth, op, 0, func() { st, err = store.Open(dir, store.Options{}) })
	if err != nil {
		return err
	}
	infos := st.Indexes(op)
	if len(infos) != 1 {
		return fmt.Errorf("trace: store holds %d indexes of %s after reopening, want 1", len(infos), op)
	}
	l.time("store.load_index", sideDepth, op, 0, func() { _, _, err = st.LoadIndex(infos[0], cnf, matrix.Sparse()) })
	if err != nil {
		return err
	}
	l.time("store.snapshot", sideDepth, op, 0, func() { err = st.Snapshot(op, nil) })
	return err
}

// replayCold enters the cold op at depths 1 and 2; layersOf covered 3 to 5.
func (t *tracer) replayCold(inputs []*input) error {
	d1, err := t.e.newInproc("d1")
	if err != nil {
		return err
	}
	defer d1.close()
	d2, err := t.e.newInproc("d2")
	if err != nil {
		return err
	}
	defer d2.close()
	if err := errors.Join(d1.load(inputs), d2.load(inputs)); err != nil {
		return err
	}
	for r := 0; r < t.rounds; r++ {
		for _, in := range inputs {
			if code, out := d1.serve(http.MethodPut, "/v1/grammars/"+in.grammarName, []byte(in.grammarText)); code != http.StatusOK {
				return fmt.Errorf("trace: PUT grammar: status %d: %s", code, out)
			}
			var code int
			var out []byte
			t.log.time("server.handler", 1, in.name, r, func() { code, out = d1.serve(http.MethodPost, "/v1/query", countBody(in)) })
			var ans server.QueryAnswer
			err := json.Unmarshal(out, &ans)
			if code != http.StatusOK {
				err = fmt.Errorf("trace: depth 1: status %d: %s", code, out)
			}
			t.res.attempt(errors.Join(err, checkCount(ans, len(in.relation))))

			if err := d2.svc.RegisterGrammar(in.grammarName, in.grammarText); err != nil {
				return err
			}
			t.log.time("server.service", 2, in.name, r, func() { ans, err = d2.svc.Do(t.e.ctx, countRequest(in)) })
			t.res.attempt(errors.Join(err, checkCount(ans, len(in.relation))))
			t.log.time("server.encode", 2, in.name, r, func() { _, err = json.Marshal(ans) })
		}
	}
	// The server layers' own share of a cold op drowns in the run-to-run
	// noise of the closure it contains, so it is taken from the same
	// request repeated against the index the cold op left cached.
	for _, in := range inputs {
		req := countRequest(in)
		for i := 0; i < t.reads/10; i++ {
			t.log.time("server.handler", 1, in.name+cachedOp, i, func() { d1.serve(http.MethodPost, "/v1/query", countBody(in)) })
			var ans server.QueryAnswer
			t.log.time("server.service", 2, in.name+cachedOp, i, func() { ans, _ = d2.svc.Do(t.e.ctx, req) })
			t.log.time("server.encode", 2, in.name+cachedOp, i, func() { _, _ = json.Marshal(ans) })
			t.log.time("cfpq.do", 3, in.name+cachedOp, i, func() {
				_, _ = t.prepared[in.name].Do(t.e.ctx, cfpq.Request{Nonterminal: startNT, Output: cfpq.OutputCount})
			})
		}
	}
	return nil
}

// cachedOp marks the spans of a cold case's request repeated on a warm index.
const cachedOp = "/cached"

// replayReads enters the first ops of client 0's read stream at every depth.
func (t *tracer) replayReads(rs *readState) error {
	in, ctx := rs.in, t.e.ctx
	ip, err := t.e.newInproc("reads")
	if err != nil {
		return err
	}
	defer ip.close()
	if err := ip.load([]*input{in}); err != nil {
		return err
	}
	g, ids, p := t.graphs[in.name], t.ids[in.name], t.prepared[in.name]
	re, err := rpq.ParseRegex(rpqExpr)
	if err != nil {
		return err
	}
	rgram, _, _ := rpq.Grammar(re)
	rcnf, err := grammar.ToCNF(rgram)
	if err != nil {
		return err
	}
	frontierPasses, rpqs := 0, 0
	frontier := core.NewEngine(core.WithBackend(matrix.Sparse()))
	counting := core.NewEngine(core.WithBackend(matrix.Sparse()), core.WithTracer(&core.Trace{Pass: func(ev core.PassEvent) {
		if ev.Pass > 0 {
			frontierPasses++
		}
	}}))

	mix := newReadMix(t.e.seed, 0, in, rs.rel)
	for i := 0; i < t.reads; i++ {
		op := mix.next()
		body := readBody(in, op)
		var code int
		var out []byte
		t.log.time("server.handler", 1, op.class, i, func() { code, out = ip.serve(http.MethodPost, "/v1/query", body) })
		var ans server.QueryAnswer
		err := json.Unmarshal(out, &ans)
		if code != http.StatusOK {
			err = fmt.Errorf("trace: depth 1: status %d: %s", code, out)
		}
		if err == nil {
			err = rs.check(op, ans)
		}
		t.res.attempt(err)

		var req server.QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		t.log.time("server.service", 2, op.class, i, func() { ans, err = ip.svc.Do(ctx, req) })
		if err == nil {
			err = rs.check(op, ans)
		}
		t.res.attempt(err)
		t.log.time("server.encode", 2, op.class, i, func() { _, err = json.Marshal(ans) })

		// Depth 3 is the library call the service makes with names resolved.
		creq := cfpq.Request{Nonterminal: startNT, Output: cfpq.Output(req.Output), Limit: req.Limit}
		if req.Sources != nil {
			creq.Sources = []int{ids[req.Sources[0]]}
		}
		if req.Targets != nil {
			creq.Targets = []int{ids[req.Targets[0]]}
		}
		if op.class != "rpq_from" {
			t.log.time("cfpq.do", 3, op.class, i, func() { _, err = p.Do(ctx, creq) })
			if err != nil {
				return err
			}
			continue
		}
		var snap *graph.Graph
		t.log.time("graph.clone", sideDepth, op.class, i, func() { snap = g.Clone() })
		creq.Nonterminal, creq.Expr, creq.Graph = "", rpqExpr, snap
		t.log.time("cfpq.do", 3, op.class, i, func() { _, err = cfpq.NewEngine(cfpq.Sparse).Do(ctx, creq) })
		if err != nil {
			return err
		}
		t.log.time("core.frontier", 4, op.class, i, func() { _, _, err = frontier.RunFromContext(ctx, snap, rcnf, creq.Sources) })
		if err != nil {
			return err
		}
		if _, _, err := counting.RunFromContext(ctx, snap, rcnf, creq.Sources); err != nil {
			return err
		}
		rpqs++
	}
	if rpqs > 0 {
		t.setCount("core.frontier_passes", in.name, float64(frontierPasses)/float64(rpqs))
	}
	return nil
}

// replayWrites enters the first batches of the write stream at every depth,
// each depth on state of its own, because a batch can be applied only once.
func (t *tracer) replayWrites(rs *readState, seed int64) error {
	in, ctx := rs.in, t.e.ctx
	bg := newBatchGen(seed, in.g)
	batches := make([][]graph.Edge, t.writes)
	for i := range batches {
		batches[i] = bg.next()
	}

	// Depth 1: the handler.
	d1, err := t.e.newInproc("w1")
	if err != nil {
		return err
	}
	defer d1.close()
	if err := d1.load([]*input{in}); err != nil {
		return err
	}
	for i, b := range batches {
		var code int
		var out []byte
		t.log.time("server.handler", 1, "write", i, func() {
			code, out = d1.serve(http.MethodPost, "/v1/graphs/"+in.name+"/edges", edgesBody(in, b))
		})
		if code != http.StatusOK {
			return fmt.Errorf("trace: depth 1 write: status %d: %s", code, out)
		}
	}

	// Depth 2: the service, with a follower service fed from its WAL tail
	// exactly as the replicator feeds a real one.
	d2, err := t.e.newInproc("w2")
	if err != nil {
		return err
	}
	defer d2.close()
	fol, err := t.e.newInproc("w2-follower")
	if err != nil {
		return err
	}
	defer fol.close()
	if err := d2.load([]*input{in}); err != nil {
		return err
	}
	data, seq, epoch, err := d2.svc.ReplicaGraphSnapshot(in.name)
	if err != nil {
		return err
	}
	fg, fnames, _, err := store.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	if err := errors.Join(fol.svc.ApplyGrammar(in.grammarName, in.grammarText), fol.svc.BootstrapGraph(in.name, fg, fnames, seq, epoch)); err != nil {
		return err
	}
	count := countRequest(in)
	if _, err := fol.svc.Do(ctx, count); err != nil {
		return err
	}
	for i, b := range batches {
		t.log.time("server.service", 2, "write", i, func() { _, err = d2.svc.AddEdges(ctx, in.name, edgeSpecs(in, b)) })
		if err != nil {
			return err
		}
		var tail []store.TailBatch
		t.log.time("replica.tail", 2, "write", i, func() { tail, err = tailOf(ctx, d2.svc, in.name, seq, epoch) })
		if err != nil {
			return err
		}
		for _, tb := range tail {
			t.log.time("replica.apply", 2, "write", i, func() {
				err = fol.svc.ApplyReplicatedEdges(ctx, in.name, tb.Kind, tb.Recs, tb.Seq)
			})
			if err != nil {
				return err
			}
			seq = tb.Seq
		}
	}
	lead, err1 := d2.svc.Do(ctx, count)
	follow, err2 := fol.svc.Do(ctx, count)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	var ferr error
	if *lead.Count != *follow.Count {
		ferr = fmt.Errorf("trace: replayed follower holds %d pairs, its leader %d", *follow.Count, *lead.Count)
	}
	t.res.attempt(ferr)

	// Depth 3: the journal append and the library's AddEdges, once on a
	// handle nobody subscribes to and once on one with a subscriber.
	g, ids, cnf := t.graphs[in.name], t.ids[in.name], t.cnfs[in.name]
	dir := filepath.Join(t.e.runDir, "trace-store-w3")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer func() { st.Close() }()
	if err := st.CreateGraph(in.name, g, graph.NodeNames(g.Nodes(), ids)); err != nil {
		return err
	}
	eng := cfpq.NewEngine(cfpq.Sparse)
	plain, err := eng.PrepareCNF(ctx, g.Clone(), cnf)
	if err != nil {
		return err
	}
	watched, err := eng.PrepareCNF(ctx, g.Clone(), cnf)
	if err != nil {
		return err
	}
	sub, err := watched.Subscribe(ctx, cfpq.Request{Nonterminal: startNT})
	if err != nil {
		return err
	}
	defer sub.Close()
	ce := core.NewEngine(core.WithBackend(matrix.Sparse()))
	ix := ce.Init(g, cnf)
	if _, err := ce.CloseContext(ctx, ix); err != nil {
		return err
	}
	var passes, products, newPairs, updateBytes float64
	for i, b := range batches {
		recs := make([]store.EdgeRecord, len(b))
		edges := make([]graph.Edge, len(b))
		for k, e := range b {
			recs[k] = store.EdgeRecord{From: in.names[e.From], Label: e.Label, To: in.names[e.To]}
			edges[k] = graph.Edge{From: ids[in.names[e.From]], Label: e.Label, To: ids[in.names[e.To]]}
		}
		t.log.time("store.append", sideDepth, "write", i, func() { _, err = st.Append(in.name, recs) })
		if err != nil {
			return err
		}
		t.log.time("cfpq.addedges", 3, "write", i, func() { _, err = plain.AddEdges(ctx, edges...) })
		if err != nil {
			return err
		}
		var info cfpq.UpdateInfo
		t.log.time("cfpq.addedges_sub", 3, "write", i, func() { info, err = watched.AddEdges(ctx, edges...) })
		if err != nil {
			return err
		}
		if len(info.Delta.Pairs(startNT)) > 0 {
			t.log.time("cfpq.publish", 3, "write", i, func() { <-sub.Updates() })
		}
		// Depth 4: the incremental closure alone.
		var stats core.Stats
		var delta *core.Delta
		bytes, _ := allocs(func() {
			t.log.time("core.update", 4, "write", i, func() { stats, delta, err = ce.UpdateContext(ctx, ix, edges...) })
		})
		if err != nil {
			return err
		}
		passes += float64(stats.Iterations)
		products += float64(stats.Products)
		updateBytes += float64(bytes)
		for _, nt := range delta.Nonterminals() {
			newPairs += float64(len(delta.Pairs(nt)))
		}
	}
	n := float64(len(batches))
	t.setCount("core.update_passes", in.name, passes/n)
	t.setCount("core.update_products", in.name, products/n)
	t.setCount("core.update_new_pairs", in.name, newPairs/n)
	t.setCount("core.update_alloc_mb", in.name, updateBytes/n/1e6)

	// What phase C pays before it can load an index: replaying the journal.
	if err := st.Close(); err != nil {
		return err
	}
	t.log.time("store.open", sideDepth, "write", 0, func() { st, err = store.Open(dir, store.Options{}) })
	return err
}

// tailOf is one poll of a leader's WAL tail, decoded the way the follower's
// replicator decodes it.
func tailOf(ctx context.Context, svc *server.Service, graphName string, from, epoch uint64) ([]store.TailBatch, error) {
	resp, err := svc.ReplicaTail(ctx, graphName, "bench", from, epoch, 0)
	if err != nil {
		return nil, err
	}
	var out []store.TailBatch
	for _, wb := range resp.Batches {
		b, err := wb.Batch()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// derive turns the spans and counts into the per-layer metrics.
func (t *tracer) derive(inputs []*input) {
	by := t.log.by()
	all := func(name, op string) sample {
		var s sample
		for _, d := range by[[2]string{name, op}] {
			s = append(s, d)
		}
		return s
	}
	med := func(name, op string) float64 { return ms(all(name, op).median()) }
	n := func(name, op string) int { return len(by[[2]string{name, op}]) }
	// self is a layer's own time on one kind of op: op by op, the span's
	// duration minus the spans of the layers it calls for the same op id;
	// the median of that, floored at zero.
	self := func(op, parent string, children ...string) float64 {
		var s sample
		for id, d := range by[[2]string{parent, op}] {
			for _, c := range children {
				d -= by[[2]string{c, op}][id]
			}
			s = append(s, d)
		}
		return selfTime(ms(s.median()))
	}
	cases := make([]string, len(inputs))
	for i, in := range inputs {
		cases[i] = in.name
	}
	// Times of a workload's cases combine by geometric mean, counts by sum.
	geo := func(name string) float64 {
		vals := make([]float64, len(cases))
		for i, c := range cases {
			vals[i] = med(name, c)
		}
		return geomean(vals...)
	}
	sum := func(metric string) float64 {
		total := 0.0
		for _, c := range cases {
			total += t.count[metric][c]
		}
		return total
	}
	res := t.res

	res.layer("grammar.parse_us", geo("grammar.parse")*1e3, t.rounds)
	res.layer("grammar.cnf_us", geo("grammar.cnf")*1e3, t.rounds)
	res.layer("grammar.cnf_rules", sum("grammar.cnf_rules"), len(cases))
	res.layer("graph.load_edgelist_ms", geo("graph.load_edgelist"), t.rounds)
	res.layer("graph.clone_ms", geo("graph.clone"), t.rounds)

	res.layer("matrix.addmul_round_ms", geo("matrix.addmul_round"), t.rounds)
	res.layer("matrix.addmul_round_allocs", sum("matrix.addmul_round_allocs"), len(cases))
	res.layer("matrix.addmul_round_alloc_kb", sum("matrix.addmul_round_alloc_kb"), len(cases))
	res.layer("matrix.pairs_ms", geo("matrix.pairs"), t.rounds)
	res.layer("matrix.index_mb", sum("matrix.index_mb"), len(cases))

	res.layer("core.init_ms", geo("core.init"), t.rounds)
	closeTotal := 0.0
	for _, c := range cases {
		res.layer("core.close_ms."+c, med("core.close", c), t.rounds)
		res.layer("core.passes."+c, t.count["core.passes"][c], 1)
		closeTotal += med("core.close", c)
	}
	res.layer("core.products", sum("core.products"), len(cases))
	res.layer("core.us_per_pass", closeTotal*1e3/sum("core.passes"), int(sum("core.passes")))
	res.layer("core.new_pairs_per_product", sum("core.new_bits")/sum("core.products"), int(sum("core.products")))
	res.layer("core.close_alloc_mb", sum("core.close_alloc_mb"), len(cases))
	res.layer("core.close_mallocs", sum("core.close_mallocs"), len(cases))
	peak := 0.0
	for _, c := range cases {
		peak = max(peak, t.count["core.peak_mb"][c])
	}
	res.layer("core.peak_mb", peak, len(cases))

	prepareSelf := make([]float64, len(cases))
	coldSelf := make([]float64, len(cases))
	for i, c := range cases {
		prepareSelf[i] = self(c, "cfpq.prepare", "core.init", "core.close")
		coldSelf[i] = self(c+cachedOp, "server.handler", "server.service", "server.encode") + self(c+cachedOp, "server.service", "cfpq.do")
	}
	res.layer("cfpq.prepare_self_ms", geomean(prepareSelf...), t.rounds)
	res.layer("cfpq.write_index_ms", geo("cfpq.write_index"), t.rounds)
	res.layer("cfpq.index_bytes_per_pair", sum("index_bytes")/sum("index_entries"), int(sum("index_entries")))
	res.layer("store.save_index_ms", geo("store.save_index"), t.rounds)
	res.layer("store.create_graph_ms", geo("store.create_graph"), 1)
	res.layer("store.snapshot_ms", geo("store.snapshot"), 1)
	res.layer("store.open_ms", geo("store.open"), 1)
	res.layer("store.load_index_ms", geo("store.load_index"), 1)
	if k := n("server.handler", cases[0]+cachedOp); k > 0 {
		res.layer("server.cold_self_ms", geomean(coldSelf...), k)
	}

	// Per op class: each layer's self time, outermost first. The wire's is
	// what the real client saw beyond the in-process handler.
	var encodeNs, encodePairs float64
	for _, c := range readClasses {
		if n("server.handler", c) == 0 {
			continue
		}
		// The client's ops are not the replayed ones, so the wire's share
		// is a difference of medians; the rest is taken op by op.
		res.layer("wire.self_us."+c, selfTime(res.PerLayer["client.p50_us."+c].Value, med("server.handler", c)*1e3), n("server.handler", c))
		res.layer("server.handler_self_us."+c, self(c, "server.handler", "server.service", "server.encode")*1e3, n("server.handler", c))
		res.layer("server.service_self_us."+c, self(c, "server.service", "cfpq.do", "graph.clone")*1e3, n("server.service", c))
		res.layer("cfpq.do_us."+c, med("cfpq.do", c)*1e3, n("cfpq.do", c))
	}
	if s := all("server.encode", "pairs_page"); len(s) > 0 {
		for _, d := range s {
			encodeNs += float64(d)
		}
		encodePairs = float64(len(s) * pageLimit)
		res.layer("server.encode_ns_per_pair", encodeNs/encodePairs, int(encodePairs))
	}
	if k := n("core.frontier", "rpq_from"); k > 0 {
		res.layer("core.frontier_ms", med("core.frontier", "rpq_from"), k)
		res.layer("core.frontier_passes", sum("core.frontier_passes"), k)
	}

	// The write path.
	if k := n("server.handler", "write"); k > 0 {
		res.layer("store.append_ms", med("store.append", "write"), k)
		res.layer("store.open_ms", med("store.open", "write"), 1)
		res.layer("server.addedges_self_ms", self("write", "server.handler", "store.append", "cfpq.addedges"), k)
		res.layer("cfpq.addedges_self_us", self("write", "cfpq.addedges", "core.update")*1e3, k)
		res.layer("cfpq.sub_overhead_us", self("write", "cfpq.addedges_sub", "cfpq.addedges")*1e3, k)
		res.layer("cfpq.publish_us", med("cfpq.publish", "write")*1e3, n("cfpq.publish", "write"))
		res.layer("core.update_ms", med("core.update", "write"), k)
		for _, m := range []string{"core.update_passes", "core.update_products", "core.update_new_pairs", "core.update_alloc_mb"} {
			res.layer(m, sum(m), k)
		}
		res.layer("replica.tail_ms", med("replica.tail", "write"), k)
		res.layer("replica.apply_ms_per_batch", med("replica.apply", "write"), k)
		res.layer("replica.apply_over_leader", med("replica.apply", "write")/med("server.service", "write"), k)
	}
}

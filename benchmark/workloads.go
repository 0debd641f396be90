package main

// The four workloads at depth 0: a real cfpqd child driven over loopback
// HTTP. A run measures several server lifetimes one after the other; each
// boots on a fresh data dir, is measured for its share of the window with
// every answer checked against the oracle and the server's instruments
// against what was sent, then is crashed and recovered.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cfpq/internal/baseline"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
	"cfpq/internal/server"
)

var workloadNames = []string{"cold_deep", "cold_wide", "serve_read", "serve_write"}

var coldCases = map[string][]string{
	"cold_deep": {"chain10k", "cycle32"},
	"cold_wide": {"grid4096", "sf100k", "g3q1"},
}

// env is what one invocation shares across its workloads.
type env struct {
	ctx     context.Context
	root    string // module root of the program under test
	outDir  string // benchmark/out, ignored by git
	runDir  string // this invocation's scratch, removed on exit
	bin     string
	procs   *procs
	seed    int64
	seconds float64
	sz      sizes
	smoke   bool
	pins    map[string]string
	build   time.Duration
	trace   bool
}

// lifetimes is the number of server processes a run measures, one after the
// other, each for an equal share of the window. cfpqd settles into a faster
// or a slower gear per process (its collector's pace depends on what the heap
// happens to retain), so samples are pooled over several processes; set-up
// and recovery are timed once per process and reported as medians.
func (e *env) lifetimes() int {
	if e.smoke {
		return 1
	}
	return 5
}

// share is one lifetime's part of the measured window.
func (e *env) share() time.Duration {
	return time.Duration(e.seconds * float64(time.Second) / float64(e.lifetimes()))
}

// clients is the number of closed-loop request connections.
func clients() int { return min(2, runtime.NumCPU()) }

// metric is one reported number with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is what one workload run produced.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`

	mu sync.Mutex
}

func newResult(name string) *result {
	return &result{Workload: name, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
}

// attempt counts one op or check; a non-nil err makes it a failed one.
func (r *result) attempt(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

func (r *result) e2e(name string, v float64, n int) {
	r.EndToEnd[name] = metric{Value: v, Unit: unitOf(name), N: n}
}

func (r *result) layer(name string, v float64, n int) {
	r.PerLayer[name] = metric{Value: v, Unit: unitOf(name), N: n}
}

// loaded is a running server and the client talking to it.
type loaded struct {
	srv *cfpqd
	cl  *client
}

// bootAndLoad is one set-up: exec cfpqd on a fresh data dir, wait for
// /readyz, upload every graph and grammar, and build every index once.
func (e *env) bootAndLoad(inputs []*input, dataDir string, res *result) (*loaded, time.Duration, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	srv, err := startServer(e.ctx, e.procs, e.bin, dataDir, filepath.Join(e.runDir, "cfpqd.log"))
	if err != nil {
		return nil, 0, err
	}
	cl := newClient(clients())
	seen := map[string]bool{}
	for _, in := range inputs {
		err := cl.putGraph(e.ctx, srv, in)
		if err == nil && !seen[in.grammarName] {
			seen[in.grammarName] = true
			err = cl.putGrammar(e.ctx, srv, in)
		}
		if err != nil {
			srv.kill()
			return nil, 0, err
		}
	}
	for _, in := range inputs {
		ans, _, err := cl.query(e.ctx, srv, countBody(in))
		res.attempt(errors.Join(err, checkCount(ans, len(in.relation))))
	}
	return &loaded{srv, cl}, time.Since(start), nil
}

// recoverServer is the crash drill: SIGKILL, re-exec on the same data dir,
// and time until every input answers its count correctly again. The
// restarted server must have loaded its indexes, not rebuilt them.
func (e *env) recoverServer(ld *loaded, inputs []*input, want []int, res *result) (time.Duration, error) {
	dir := ld.srv.dataDir
	ld.cl.close()
	ld.srv.kill()
	start := time.Now()
	srv, err := startServer(e.ctx, e.procs, e.bin, dir, filepath.Join(e.runDir, "cfpqd.log"))
	if err != nil {
		return 0, err
	}
	ld.srv, ld.cl = srv, newClient(clients())
	for k, in := range inputs {
		ans, _, err := ld.cl.query(e.ctx, srv, countBody(in))
		res.attempt(errors.Join(err, checkCount(ans, want[k])))
	}
	took := time.Since(start)
	p, err := ld.cl.takeProbe(e.ctx, srv)
	if err != nil {
		return 0, err
	}
	var perr error
	if p.vars.Cfpqd.IndexBuilds != 0 || p.vars.Cfpqd.WarmStarts != int64(len(inputs)) {
		perr = fmt.Errorf("recovery: %d index builds and %d warm starts, want 0 and %d",
			p.vars.Cfpqd.IndexBuilds, p.vars.Cfpqd.WarmStarts, len(inputs))
	}
	res.attempt(perr)
	res.layer("store.replayed_records", float64(p.vars.Store.ReplayedRecords), 1)
	return took, nil
}

// afterSlice is what a lifetime's measured slice leaves for the crash
// drill: the count each input must answer after recovery, and the edges
// now in the graphs.
type afterSlice struct {
	want  []int
	edges int
}

// eachLifetime runs the workload's slice once per server lifetime and
// reports the metrics every workload shares: set-up time, bytes on disk per
// edge, and recovery time, each the median over the lifetimes.
func (e *env) eachLifetime(inputs []*input, res *result, slice func(ld *loaded, i int) (afterSlice, error)) error {
	var setups, recoveries, disk []float64
	for i := 0; i < e.lifetimes(); i++ {
		dir := filepath.Join(e.runDir, fmt.Sprintf("%s-data-%d", res.Workload, i))
		ld, took, err := e.bootAndLoad(inputs, dir, res)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		err = func() error {
			after, err := slice(ld, i)
			if err != nil {
				return err
			}
			bytes, err := dirBytes(dir)
			if err != nil {
				return err
			}
			disk = append(disk, float64(bytes)/float64(after.edges))
			took, err := e.recoverServer(ld, inputs, after.want, res)
			recoveries = append(recoveries, took.Seconds())
			return err
		}()
		ld.cl.close()
		if i == e.lifetimes()-1 {
			ld.srv.stop() // the last one leaves the way an operator stops it
		} else {
			ld.srv.kill()
		}
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	res.e2e("setup_s", medianOf(setups), len(setups))
	res.e2e("recovery_s", medianOf(recoveries), len(recoveries))
	res.e2e("disk_bytes_per_edge", medianOf(disk), len(disk))
	return nil
}

// windowStats are the outside readings of the measured slices, summed over
// the lifetimes.
type windowStats struct {
	wall, genCPU, srvCPU, scrape time.Duration
	ops, probes                  int
	builds, gotBuilds            int64 // index builds the ops call for, and counted
	sent                         int64
	httpReqs                     float64
	allocBytes, mallocs, pauseNs uint64
	gcCycles                     uint32
	hwmMB                        float64
	walAppends, walFsyncs        int64
	walBytes                     int64
}

// settle lets the server finish observing requests whose responses the
// client has already read: the histogram ticks after the handler returns.
const settle = 50 * time.Millisecond

// measure runs fn between two probes of the server's outside instruments
// and adds what they saw to the window's totals.
func (ws *windowStats) measure(e *env, ld *loaded, fn func() (ops int, builds int64)) error {
	b, err := ld.cl.takeProbe(e.ctx, ld.srv)
	if err != nil {
		return err
	}
	cpu0 := selfCPU()
	start := time.Now()
	ops, builds := fn()
	ws.wall += time.Since(start)
	ws.genCPU += selfCPU() - cpu0
	time.Sleep(settle)
	a, err := ld.cl.takeProbe(e.ctx, ld.srv)
	if err != nil {
		return err
	}
	ws.ops += ops
	ws.builds += builds
	ws.gotBuilds += a.vars.Cfpqd.IndexBuilds - b.vars.Cfpqd.IndexBuilds
	ws.sent += a.sent - b.sent
	ws.httpReqs += a.httpReqs - b.httpReqs
	ws.srvCPU += a.proc.cpu - b.proc.cpu
	ws.allocBytes += a.vars.Memstats.TotalAlloc - b.vars.Memstats.TotalAlloc
	ws.mallocs += a.vars.Memstats.Mallocs - b.vars.Memstats.Mallocs
	ws.gcCycles += a.vars.Memstats.NumGC - b.vars.Memstats.NumGC
	ws.pauseNs += a.vars.Memstats.PauseTotalNs - b.vars.Memstats.PauseTotalNs
	ws.hwmMB = max(ws.hwmMB, a.proc.hwmMB)
	ws.walAppends += a.vars.Cfpqd.WALAppends - b.vars.Cfpqd.WALAppends
	ws.walFsyncs += a.vars.Cfpqd.WALFsyncs - b.vars.Cfpqd.WALFsyncs
	ws.walBytes += a.vars.Cfpqd.WALBytes - b.vars.Cfpqd.WALBytes
	ws.scrape += b.scrape + a.scrape
	ws.probes += 2
	return nil
}

// report turns the window's outside readings into metrics and checks that
// the server's own counters agree with what the client did.
func (ws *windowStats) report(res *result) {
	ops := float64(max(ws.ops, 1))
	res.e2e("ops_per_s", float64(ws.ops)/ws.wall.Seconds(), ws.ops)
	res.e2e("server_cpu_ms_per_op", ms(ws.srvCPU)/ops, ws.ops)
	res.e2e("server_alloc_mb_per_op", float64(ws.allocBytes)/1e6/ops, ws.ops)
	res.layer("server.mallocs_per_op", float64(ws.mallocs)/ops, ws.ops)
	res.layer("server.gc_cycles", float64(ws.gcCycles), 1)
	res.layer("server.gc_pause_ms", float64(ws.pauseNs)/1e6, 1)
	res.layer("server.cpu_s", ws.srvCPU.Seconds(), 1)
	res.layer("server.rss_peak_mb", ws.hwmMB, 1)
	res.layer("obs.scrape_ms", ms(ws.scrape)/float64(max(ws.probes, 1)), ws.probes)
	if total := ws.genCPU + ws.srvCPU; total > 0 {
		res.layer("gen.cpu_share", float64(ws.genCPU)/float64(total), 1)
	}
	if ws.walAppends > 0 {
		res.layer("store.fsyncs_per_append", float64(ws.walFsyncs)/float64(ws.walAppends), int(ws.walAppends))
		res.layer("store.wal_bytes_per_edge", float64(ws.walBytes)/float64(2*ws.walAppends), int(ws.walAppends))
	}

	countErr := math.Abs(ws.httpReqs-float64(ws.sent)) / float64(max(ws.sent, 1))
	res.layer("obs.count_err", countErr, int(ws.sent))
	var err error
	if countErr != 0 {
		err = fmt.Errorf("instruments disagree: /metrics saw %.0f requests, the client sent %d", ws.httpReqs, ws.sent)
	}
	res.attempt(err)
	buildsErr := math.Abs(float64(ws.gotBuilds-ws.builds)) / float64(max(ws.builds, 1))
	res.layer("obs.builds_err", buildsErr, int(ws.builds))
	err = nil
	if buildsErr != 0 {
		err = fmt.Errorf("instruments disagree: index_builds rose by %d, the ops call for %d", ws.gotBuilds, ws.builds)
	}
	res.attempt(err)
}

// genInputs builds and solves the named cases, verifies their pins, and
// reports what the generator and the oracle cost.
func (e *env) genInputs(names []string, res *result) ([]*input, error) {
	var inputs []*input
	var oracle time.Duration
	for _, name := range names {
		in, err := genCase(name, e.sz, e.seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		in.solve()
		oracle += time.Since(start)
		if !e.smoke && (name != "sf100k" || e.seed == 1) {
			if err := checkPin(e.pins, name, digest(in.edgeList)); err != nil {
				return nil, err
			}
		}
		inputs = append(inputs, in)
	}
	res.layer("gen.build_s", e.build.Seconds(), 1)
	res.layer("gen.oracle_s", oracle.Seconds(), len(names))
	return inputs, nil
}

// inHalves runs a lifetime's slice of the window. An untraced run measures
// it whole. The traced run splits it: one half runs as every untraced run
// does (fn gets no span log and only keeps its timings), the other records
// spans and is the measured one; the ratio of the two is the tracing
// overhead, and which half goes first alternates from lifetime to lifetime.
func inHalves(i int, d time.Duration, spans *spanLog, fn func(window time.Duration, spans *spanLog) error) error {
	if spans == nil {
		return fn(d, nil)
	}
	order := []*spanLog{nil, spans}
	if i%2 == 1 {
		order[0], order[1] = spans, nil
	}
	for _, s := range order {
		if err := fn(d/2, s); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) newSpans() *spanLog {
	if e.trace {
		return newSpanLog()
	}
	return nil
}

// --- cold_deep, cold_wide ---------------------------------------------

// coldWindow runs whole rounds over the cases until the window has passed:
// an untimed PUT of the grammar drops the cached index, so the timed count
// query is a cold build.
func (e *env) coldWindow(ld *loaded, inputs []*input, window time.Duration, res *result, spans *spanLog, lat map[string]sample, puts *sample) int {
	ops := 0
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < window; round++ {
		for _, in := range inputs {
			t := time.Now()
			err := ld.cl.putGrammar(e.ctx, ld.srv, in)
			*puts = append(*puts, time.Since(t))
			t = time.Now()
			ans, _, qerr := ld.cl.query(e.ctx, ld.srv, countBody(in))
			d := time.Since(t)
			spans.add("client", 0, in.name, len(lat[in.name]), t, d)
			res.attempt(errors.Join(err, qerr, checkCount(ans, len(in.relation))))
			lat[in.name] = append(lat[in.name], d)
			ops++
		}
	}
	return ops
}

func (e *env) runCold(name string) (*result, *traceInputs, error) {
	res := newResult(name)
	inputs, err := e.genInputs(coldCases[name], res)
	if err != nil {
		return nil, nil, err
	}
	spans := e.newSpans()
	lat, untraced := map[string]sample{}, map[string]sample{}
	var puts sample
	var ws windowStats
	err = e.eachLifetime(inputs, res, func(ld *loaded, i int) (afterSlice, error) {
		err := inHalves(i, e.share(), spans, func(window time.Duration, s *spanLog) error {
			if e.trace && s == nil {
				e.coldWindow(ld, inputs, window, res, nil, untraced, &puts)
				return nil
			}
			return ws.measure(e, ld, func() (int, int64) {
				ops := e.coldWindow(ld, inputs, window, res, s, lat, &puts)
				return ops, int64(ops)
			})
		})
		// The last PUT of a shared grammar dropped the other cases'
		// indexes; build each once more so the directory holds one index
		// per case when it is weighed and recovered.
		after := afterSlice{want: make([]int, len(inputs))}
		for k, in := range inputs {
			ans, _, qerr := ld.cl.query(e.ctx, ld.srv, countBody(in))
			res.attempt(errors.Join(qerr, checkCount(ans, len(in.relation))))
			after.edges += in.g.EdgeCount()
			after.want[k] = len(in.relation)
		}
		return after, err
	})
	if err != nil {
		return nil, nil, err
	}
	ws.report(res)
	res.e2e("op_p50_ms", caseGeomean(lat, coldCases[name]), ws.ops)
	for _, c := range coldCases[name] {
		res.layer("client.p50_ms."+c, ms(lat[c].median()), len(lat[c]))
	}
	res.layer("client.grammar_put_ms", ms(puts.median()), len(puts))
	if e.trace {
		res.layer("trace.overhead_ratio", caseGeomean(lat, coldCases[name])/caseGeomean(untraced, coldCases[name]), ws.ops)
	}
	return res, &traceInputs{inputs: inputs, spans: spans}, nil
}

func caseGeomean(lat map[string]sample, keys []string) float64 {
	vals := make([]float64, 0, len(keys))
	for _, k := range keys {
		vals = append(vals, ms(lat[k].median()))
	}
	return geomean(vals...)
}

// --- serve_read ---------------------------------------------------------

// readState is what checking a read needs: the input, its relation, and
// the graph's adjacency for the RPQ oracle.
type readState struct {
	in  *input
	rel *relationIndex
	adj *graph.Adjacency
}

func newReadState(in *input) *readState {
	return &readState{in: in, rel: indexRelation(in.relation), adj: graph.NewAdjacency(in.g)}
}

// readOutcome is one timed read.
type readOutcome struct {
	class     string
	dur       time.Duration
	bytes     int
	pairs     int
	saturated bool
}

// doRead sends one op of the mix and checks its answer against the oracle.
func (rs *readState) doRead(ctx context.Context, ld *loaded, op readOp, res *result) readOutcome {
	body := readBody(rs.in, op)
	t := time.Now()
	ans, n, err := ld.cl.query(ctx, ld.srv, body)
	out := readOutcome{class: op.class, dur: time.Since(t), bytes: n, pairs: len(ans.Pairs), saturated: ans.Explain.Saturated}
	if err == nil {
		err = rs.check(op, ans)
	}
	res.attempt(err)
	return out
}

func (rs *readState) check(op readOp, ans server.QueryAnswer) error {
	switch op.class {
	case "exists":
		return checkExists(ans, rs.rel.set[matrix.Pair{I: op.src, J: op.dst}])
	case "count":
		return checkCount(ans, len(rs.in.relation))
	case "pairs_from":
		row := intSet(rs.rel.rows[op.src])
		return checkPairsFrom(ans, op.src, row, row)
	case "pairs_page":
		return checkPage(ans, rs.rel.set, min(pageLimit, len(rs.in.relation)), len(rs.in.relation) > pageLimit)
	case "rpq_from":
		row := intSet(reachPlus(rs.adj, rpqLabel, op.src))
		return checkPairsFrom(ans, op.src, row, row)
	}
	return fmt.Errorf("unknown op class %q", op.class)
}

func intSet(vs []int) map[int]bool {
	out := make(map[int]bool, len(vs))
	for _, v := range vs {
		out[v] = true
	}
	return out
}

// readWindow runs the closed-loop clients, each continuing its own seeded
// stream of the mix from one lifetime to the next.
func (e *env) readWindow(ld *loaded, rs *readState, mixes []*readMix, window time.Duration, res *result, spans *spanLog) []readOutcome {
	deadline := time.Now().Add(window)
	outs := make([][]readOutcome, len(mixes))
	var wg sync.WaitGroup
	for c, mix := range mixes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				t := time.Now()
				o := rs.doRead(e.ctx, ld, mix.next(), res)
				spans.add("client", 0, o.class, c<<32|i, t, o.dur)
				outs[c] = append(outs[c], o)
			}
		}()
	}
	wg.Wait()
	var all []readOutcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// classSamples splits outcomes into one sample per op class.
func classSamples(outs []readOutcome) map[string]sample {
	by := map[string]sample{}
	for _, o := range outs {
		by[o.class] = append(by[o.class], o.dur)
	}
	return by
}

func classGeomean(by map[string]sample, q float64) float64 {
	var vals []float64
	for _, s := range by {
		vals = append(vals, ms(s.percentile(q)))
	}
	return geomean(vals...)
}

// reportReads fills the per-class client metrics of a read window.
func reportReads(outs []readOutcome, res *result) map[string]sample {
	by := classSamples(outs)
	for _, c := range readClasses {
		if s := by[c]; len(s) > 0 {
			res.layer("client.p50_us."+c, us(s.median()), len(s))
			res.layer("client.p99_us."+c, us(s.percentile(0.99)), len(s))
		}
	}
	res.layer("client.read_p50_ms", classGeomean(by, 0.5), len(outs))
	res.layer("client.read_p99_ms", classGeomean(by, 0.99), len(outs))
	var pageBytes, pagePairs, rpq, fallback int
	for _, o := range outs {
		switch o.class {
		case "pairs_page":
			pageBytes += o.bytes
			pagePairs += o.pairs
		case "rpq_from":
			rpq++
			if o.saturated {
				fallback++
			}
		}
	}
	if pagePairs > 0 {
		res.layer("server.resp_bytes_per_pair", float64(pageBytes)/float64(pagePairs), pagePairs)
	}
	if rpq > 0 {
		res.layer("core.frontier_fallback_ratio", float64(fallback)/float64(rpq), rpq)
	}
	return by
}

func (e *env) runRead() (*result, *traceInputs, error) {
	res := newResult("serve_read")
	inputs, err := e.genInputs([]string{"g3q1"}, res)
	if err != nil {
		return nil, nil, err
	}
	rs := newReadState(inputs[0])
	if !e.smoke && e.seed == 1 {
		if err := checkPin(e.pins, "read_ops", readOpsDigest(e.seed, rs.in, rs.rel)); err != nil {
			return nil, nil, err
		}
	}
	mixes := make([]*readMix, clients())
	for c := range mixes {
		mixes[c] = newReadMix(e.seed, c, rs.in, rs.rel)
	}
	spans := e.newSpans()
	var outs, untraced []readOutcome
	var ws windowStats
	err = e.eachLifetime(inputs, res, func(ld *loaded, i int) (afterSlice, error) {
		err := inHalves(i, e.share(), spans, func(window time.Duration, s *spanLog) error {
			if e.trace && s == nil {
				untraced = append(untraced, e.readWindow(ld, rs, mixes, window, res, nil)...)
				return nil
			}
			return ws.measure(e, ld, func() (int, int64) {
				got := e.readWindow(ld, rs, mixes, window, res, s)
				outs = append(outs, got...)
				return len(got), 0
			})
		})
		return afterSlice{want: []int{len(rs.in.relation)}, edges: rs.in.g.EdgeCount()}, err
	})
	if err != nil {
		return nil, nil, err
	}
	ws.report(res)
	by := reportReads(outs, res)
	res.e2e("op_p50_ms", classGeomean(by, 0.5), len(outs))
	if e.trace {
		res.layer("trace.overhead_ratio", classGeomean(by, 0.5)/classGeomean(classSamples(untraced), 0.5), len(outs))
	}
	return res, &traceInputs{inputs: inputs, spans: spans, reads: rs}, nil
}

// --- serve_write --------------------------------------------------------

// writeState is the writer's side of one serve_write lifetime: the batch
// stream, the oracle that knows what each batch derives, and the two
// counters a racing read is checked between.
type writeState struct {
	rs      *readState
	batches *batchGen
	g       *graph.Graph // the uploaded graph plus this lifetime's batches
	oracle  *incOracle
	sent    atomic.Int64 // batches handed to the server
	acked   atomic.Int64 // batches the server acknowledged
	pushed  map[server.NamedPair]bool
	noPush  int
}

// pushTimeout bounds the wait for an event the oracle says must come.
const pushTimeout = 10 * time.Second

// writeOutcome is one batch: its ack latency and, when it derived pairs,
// how long after sending them the subscribers saw them.
type writeOutcome struct {
	ack        time.Duration
	push       time.Duration // 0 when the batch derived nothing
	followPush time.Duration // 0 outside phase B
}

// awaitPush waits for the event carrying exactly the pairs a batch derived
// and returns when the subscriber received it.
func awaitPush(events <-chan pushEvent, want []matrix.Pair, seen map[server.NamedPair]bool) (time.Time, error) {
	select {
	case ev, ok := <-events:
		if !ok {
			return time.Time{}, errors.New("push: stream closed")
		}
		if ev.err != nil {
			return time.Time{}, ev.err
		}
		return ev.at, checkPush(ev.pairs, want, seen)
	case <-time.After(pushTimeout):
		return time.Time{}, fmt.Errorf("push: no event within %v for a batch deriving %d pairs", pushTimeout, len(want))
	}
}

// writeBatch sends the next batch to the leader and follows its pairs to
// the leader's stream and, when there is one, the follower's.
func (w *writeState) writeBatch(ctx context.Context, ld *loaded, leader, follower <-chan pushEvent, followSeen map[server.NamedPair]bool, res *result) writeOutcome {
	batch := w.batches.next()
	for _, e := range batch {
		w.g.AddEdge(e.From, e.Label, e.To)
	}
	fresh := w.oracle.addBatch(batch)
	body := edgesBody(w.rs.in, batch)
	var out writeOutcome
	w.sent.Add(1)
	t := time.Now()
	status, msg, err := ld.cl.do(ctx, "POST", ld.srv.base+"/v1/graphs/"+w.rs.in.name+"/edges", body)
	out.ack = time.Since(t)
	w.acked.Add(1)
	if err == nil && status != 200 {
		err = fmt.Errorf("POST edges: status %d: %s", status, msg)
	}
	res.attempt(err)
	if err != nil {
		return out
	}
	if len(fresh) == 0 {
		w.noPush++
		return out
	}
	at, err := awaitPush(leader, fresh, w.pushed)
	res.attempt(err)
	if err == nil {
		out.push = at.Sub(t)
	}
	if follower != nil {
		at, err := awaitPush(follower, fresh, followSeen)
		res.attempt(err)
		if err == nil {
			out.followPush = at.Sub(t)
		}
	}
	return out
}

// pacedReader is the closed-loop reader beside the writer: 2 ms think
// time, exists and pairs_from. An answer racing a write may reflect either
// side of the batch in flight, so it is checked between the relation at
// the last acked batch and the relation at the last sent one.
func (w *writeState) pacedReader(ctx context.Context, ld *loaded, stop <-chan struct{}, mix *readMix, res *result, spans *spanLog) []readOutcome {
	var outs []readOutcome
	for i := 0; ; i++ {
		select {
		case <-stop:
			return outs
		case <-time.After(2 * time.Millisecond):
		}
		op := mix.nextPaced()
		lo := int(w.acked.Load())
		t := time.Now()
		ans, n, err := ld.cl.query(ctx, ld.srv, readBody(w.rs.in, op))
		d := time.Since(t)
		hi := int(w.sent.Load())
		if err == nil {
			must, may := w.oracle.row(op.src, lo, hi)
			if op.class == "exists" {
				if ans.Exists == nil || (*ans.Exists && !may[op.dst]) || (!*ans.Exists && must[op.dst]) {
					err = fmt.Errorf("exists(%d,%d) answered %v outside the oracle's bounds", op.src, op.dst, ans.Exists)
				}
			} else {
				err = checkPairsFrom(ans, op.src, must, may)
			}
		}
		res.attempt(err)
		spans.add("client", 0, op.class, 9<<32|i, t, d)
		outs = append(outs, readOutcome{class: op.class, dur: d, bytes: n, pairs: len(ans.Pairs)})
	}
}

// phaseA is the leader alone: the writer, its subscriber, and the paced
// reader, for the given time.
func (e *env) phaseA(ld *loaded, w *writeState, leader <-chan pushEvent, mix *readMix, window time.Duration, res *result, spans *spanLog) ([]writeOutcome, []readOutcome) {
	stop := make(chan struct{})
	var reads []readOutcome
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = w.pacedReader(e.ctx, ld, stop, mix, res, spans)
	}()
	var writes []writeOutcome
	deadline := time.Now().Add(window)
	for i := 0; i < 5 || time.Now().Before(deadline); i++ {
		t := time.Now()
		o := w.writeBatch(e.ctx, ld, leader, nil, nil, res)
		spans.add("client", 0, "write", int(w.sent.Load()), t, o.ack)
		writes = append(writes, o)
	}
	close(stop)
	wg.Wait()
	return writes, reads
}

// writeTotals pools what the lifetimes of serve_write measured.
type writeTotals struct {
	ws                windowStats
	ack, push, follow sample
	untracedAck       sample
	reads, alone      []readOutcome
	batches, noPush   int
	oracle            time.Duration
}

// writeLifetime is one server's share of serve_write: a fifth of it the
// reader alone (the baseline of read_slowdown_under_write), half of it
// phase A, the rest phase B with a follower; phase C is the crash drill
// every lifetime ends with.
func (e *env) writeLifetime(ld *loaded, i int, rs *readState, batches *batchGen, mix *readMix, tot *writeTotals, res *result, spans *spanLog) (afterSlice, error) {
	in := rs.in
	start := time.Now()
	w := &writeState{rs: rs, batches: batches, g: in.g.Clone(), oracle: newIncOracle(in.g, in.cnf), pushed: map[server.NamedPair]bool{}}
	tot.oracle += time.Since(start)
	var oerr error
	if got := w.oracle.count(); got != len(in.relation) {
		oerr = fmt.Errorf("gen: incremental oracle holds %d pairs, Hellings %d", got, len(in.relation))
	}
	res.attempt(oerr)
	subCtx, cancelSubs := context.WithCancel(e.ctx)
	defer cancelSubs()
	leader, err := subscribe(subCtx, ld.srv, in)
	if err != nil {
		return afterSlice{}, err
	}

	share := e.share()
	stopAlone := make(chan struct{})
	time.AfterFunc(share/5, func() { close(stopAlone) })
	tot.alone = append(tot.alone, w.pacedReader(e.ctx, ld, stopAlone, mix, res, nil)...)

	err = inHalves(i, share/2, spans, func(window time.Duration, s *spanLog) error {
		if e.trace && s == nil {
			writes, _ := e.phaseA(ld, w, leader, mix, window, res, nil)
			for _, o := range writes {
				tot.untracedAck = append(tot.untracedAck, o.ack)
			}
			return nil
		}
		return tot.ws.measure(e, ld, func() (int, int64) {
			writes, reads := e.phaseA(ld, w, leader, mix, window, res, s)
			for _, o := range writes {
				tot.ack = append(tot.ack, o.ack)
				if o.push > 0 {
					tot.push = append(tot.push, o.push)
				}
			}
			tot.reads = append(tot.reads, reads...)
			return len(writes), 0
		})
	})
	if err != nil {
		return afterSlice{}, err
	}

	// Phase B: a follower joins, builds its own index, and its stream is
	// subscribed to; every further batch is followed to both streams.
	fdir := filepath.Join(e.runDir, "serve_write-follower")
	if err := os.MkdirAll(fdir, 0o755); err != nil {
		return afterSlice{}, err
	}
	defer os.RemoveAll(fdir)
	fsrv, err := startServer(e.ctx, e.procs, e.bin, fdir, filepath.Join(e.runDir, "follower.log"), "-follow", ld.srv.base, "-follower-id", "bench")
	if err != nil {
		return afterSlice{}, err
	}
	fld := &loaded{fsrv, newClient(1)}
	defer func() { fld.cl.close(); fsrv.kill() }()
	joinVer := int(w.sent.Load())
	ans, _, qerr := fld.cl.query(e.ctx, fsrv, countBody(in))
	res.attempt(errors.Join(qerr, checkCount(ans, w.oracle.count())))
	follower, err := subscribe(subCtx, fsrv, in)
	if err != nil {
		return afterSlice{}, err
	}
	followSeen := map[server.NamedPair]bool{}
	deadline := time.Now().Add(share - share/5 - share/2)
	for i := 0; i < 5 || time.Now().Before(deadline); i++ {
		if o := w.writeBatch(e.ctx, ld, leader, follower, followSeen, res); o.followPush > 0 {
			tot.follow = append(tot.follow, o.followPush)
		}
	}

	// Every acked batch is in both servers, every derived pair was pushed
	// exactly once on each stream, and the oracle that said so agrees with
	// Hellings on the full edge set.
	start = time.Now()
	full := baseline.Hellings(w.g, in.cnf)[startNT]
	tot.oracle += time.Since(start)
	oerr = nil
	if w.oracle.count() != len(full) {
		oerr = fmt.Errorf("gen: incremental oracle ends at %d pairs, Hellings on the full edge set at %d", w.oracle.count(), len(full))
	}
	res.attempt(oerr)
	ans, _, qerr = ld.cl.query(e.ctx, ld.srv, countBody(in))
	res.attempt(errors.Join(qerr, checkCount(ans, len(full))))
	ans, _, qerr = fld.cl.query(e.ctx, fsrv, countBody(in))
	res.attempt(errors.Join(qerr, checkCount(ans, len(full))))
	res.attempt(checkUnion(w.pushed, w.oracle.pairsSince(0)))
	res.attempt(checkUnion(followSeen, w.oracle.pairsSince(joinVer)))
	tot.batches += int(w.sent.Load())
	tot.noPush += w.noPush
	return afterSlice{want: []int{len(full)}, edges: w.g.EdgeCount()}, nil
}

func (e *env) runWrite() (*result, *traceInputs, error) {
	res := newResult("serve_write")
	inputs, err := e.genInputs([]string{"g3q1"}, res)
	if err != nil {
		return nil, nil, err
	}
	rs := newReadState(inputs[0])
	if !e.smoke && e.seed == 1 {
		if err := checkPin(e.pins, "edge_batches", batchesDigest(e.seed, rs.in.g)); err != nil {
			return nil, nil, err
		}
	}
	spans := e.newSpans()
	// One batch stream and one reader stream serve the whole run, so the
	// lifetimes measure different batches and reads, not the same few again.
	batches, mix := newBatchGen(e.seed, rs.in.g), newReadMix(e.seed, 9, rs.in, rs.rel)
	var tot writeTotals
	err = e.eachLifetime(inputs, res, func(ld *loaded, i int) (afterSlice, error) {
		return e.writeLifetime(ld, i, rs, batches, mix, &tot, res, spans)
	})
	if err != nil {
		return nil, nil, err
	}
	tot.ws.report(res)
	res.layer("gen.oracle_s", res.PerLayer["gen.oracle_s"].Value+tot.oracle.Seconds(), 1+2*e.lifetimes())
	readBy := reportReads(tot.reads, res)
	readP50 := classGeomean(readBy, 0.5)
	res.layer("server.read_slowdown_under_write", readP50/classGeomean(classSamples(tot.alone), 0.5), len(tot.reads))
	res.layer("client.write_p50_ms", ms(tot.ack.median()), len(tot.ack))
	res.layer("client.write_p95_ms", ms(tot.ack.percentile(0.95)), len(tot.ack))
	res.layer("client.push_p50_ms", ms(tot.push.median()), len(tot.push))
	res.layer("client.follower_push_p50_ms", ms(tot.follow.median()), len(tot.follow))
	res.layer("client.no_push_batches", float64(tot.noPush), tot.batches)
	// The op classes of this workload, each counting equally: the ack, the
	// push on the leader, the push on the follower, and the read beside
	// the writer.
	res.e2e("op_p50_ms", geomean(ms(tot.ack.median()), ms(tot.push.median()), ms(tot.follow.median()), readP50),
		len(tot.ack)+len(tot.push)+len(tot.follow)+len(tot.reads))
	if e.trace {
		res.layer("trace.overhead_ratio", float64(tot.ack.median())/float64(tot.untracedAck.median()), len(tot.ack))
	}
	return res, &traceInputs{inputs: inputs, spans: spans, reads: rs, batchSeed: e.seed}, nil
}

// run dispatches one workload by name.
func (e *env) run(name string) (*result, *traceInputs, error) {
	switch name {
	case "cold_deep", "cold_wide":
		return e.runCold(name)
	case "serve_read":
		return e.runRead()
	case "serve_write":
		return e.runWrite()
	}
	return nil, nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

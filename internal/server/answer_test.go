package server

// Tests of the answer writer: its bytes against encoding/json's for every
// output and SSE event shape (a table test and FuzzAnswerJSON over node
// names), the allocation bounds of pairs answers and of one SSE event
// through Handler, and BenchmarkReadClasses, the five serve_read op
// classes and a whole relation in process.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"cfpq"
	"cfpq/internal/dataset"
	"cfpq/internal/graph"
)

// wirePairBatch is the data payload of one SSE "pairs" event as a typed
// value: json.Marshal of it is what the event carries.
type wirePairBatch struct {
	Seq    uint64      `json:"seq"`
	Resync bool        `json:"resync,omitempty"`
	Pairs  []NamedPair `json:"pairs"`
}

// oddNames are node names every escaping rule of encoding/json applies to,
// and two that need none; "" leaves a node unnamed (its id names it).
var oddNames = []string{
	"alice", `q"uote`, `back\slash`, "ctl\x01\x1f", "<tag>&amp", "line\u2028sep\u2029",
	"bad\xffutf8", "", "é日本", "tab\tnl\n", "del\x7f",
}

// oddService is a reach service over a knows-chain whose nodes are named
// oddNames, in order.
func oddService(t testing.TB) *Service {
	t.Helper()
	names := map[string]int{}
	for id, name := range oddNames {
		if name != "" {
			names[name] = id
		}
	}
	s := New()
	if err := s.RegisterGraph("odd", graph.Chain(len(oddNames), "knows"), names); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", reachGrammar); err != nil {
		t.Fatal(err)
	}
	return s
}

// requireSameAnswer checks that writeAnswer writes exactly what writeJSON
// writes of renderAnswer: status, headers and body.
func requireSameAnswer(t *testing.T, what string, ge *graphEntry, req QueryRequest, res *cfpq.Result) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	writeJSON(want, http.StatusOK, renderAnswer(ge, req, res))
	writeAnswer(got, ge, req, res)
	if got.Code != want.Code || fmt.Sprint(got.Header()) != fmt.Sprint(want.Header()) {
		t.Fatalf("%s: status %d, header %v; encoding/json's %d, %v", what, got.Code, got.Header(), want.Code, want.Header())
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s:\n got %q\nwant %q", what, got.Body.Bytes(), want.Body.Bytes())
	}
}

// requireSameEvent checks an SSE "pairs" event against the one formatted
// from json.Marshal of its wirePairBatch.
func requireSameEvent(t *testing.T, what string, ge *graphEntry, b cfpq.PairBatch) {
	t.Helper()
	payload, err := json.Marshal(wirePairBatch{Seq: b.Seq, Resync: b.Resync, Pairs: ge.named(b.Pairs)})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("id: %d\nevent: pairs\ndata: %s\n\n", b.Seq, payload)
	j := getJSONBuf(true)
	defer j.free()
	j.event(ge.names.View(), b)
	if string(j.b) != want {
		t.Fatalf("%s:\n got %q\nwant %q", what, j.b, want)
	}
}

// requireSameBatch checks that writeBatch writes exactly what writeJSON
// writes of {"results": answers} once the relation answers' pairs are
// named through ge, as QueryBatch names them.
func requireSameBatch(t *testing.T, what string, ge *graphEntry, answers []BatchAnswer, pairs []*cfpq.Result) {
	t.Helper()
	named := append([]BatchAnswer(nil), answers...)
	for i, a := range named {
		if a.Error == "" && (a.Op == "relation" || a.Op == "relation-from") {
			named[i].Pairs = ge.named(pairs[i].AllPairs())
		}
	}
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	writeJSON(want, http.StatusOK, map[string]any{"results": named})
	writeBatch(got, ge, answers, pairs)
	if fmt.Sprint(got.Code, got.Header()) != fmt.Sprint(want.Code, want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s:\n got %d %v %q\nwant %d %v %q", what, got.Code, got.Header(), got.Body.Bytes(), want.Code, want.Header(), want.Body.Bytes())
	}
}

// oddBatch is a batch of every op, and of each kind of per-query error, on
// oddService.
var oddBatch = []BatchQuerySpec{
	{Op: "has", Nonterminal: "S", From: "alice", To: "<tag>&amp"},
	{Op: "has", Nonterminal: "S", From: "del\x7f", To: "alice"},
	{Op: "count", Nonterminal: "S", Targets: []string{`back\slash`}},
	{Nonterminal: "S"},
	{Op: "count-from", Nonterminal: "S", Sources: []string{"é日本"}},
	{Op: "relation-from", Nonterminal: "S", Sources: []string{"ctl\x01\x1f", "7"}},
	{Op: "relation-from", Nonterminal: "S"},
	{Op: "relation", Nonterminal: "S", Sources: []string{"10"}},
	{Op: "relate", Nonterminal: "S"},
	{Nonterminal: "T"},
	{Op: "has", Nonterminal: "S", From: "bad\xffutf8", To: "no such\u2028node"},
}

// TestAnswerWriterMatchesEncodingJSON renders the same Results through the
// writer and through encoding/json: every output kind, truncated, an empty
// pairs list, explain's frontier, saturated and passes, stats' optional
// fields, SSE events with and without resync and pairs, and a batch of
// every op and per-query error.
func TestAnswerWriterMatchesEncodingJSON(t *testing.T) {
	s := oddService(t)
	last := strconv.Itoa(len(oddNames) - 1)
	reach := func(fields QueryRequest) QueryRequest {
		fields.Graph, fields.Grammar, fields.Nonterminal = "odd", "reach", "S"
		return fields
	}
	for _, c := range []struct {
		what string
		req  QueryRequest
		edit func(*cfpq.Result)
	}{
		// The first request builds the slot, so its trace has passes.
		{what: "traced build", req: reach(QueryRequest{Output: "count", Trace: true})},
		{what: "pairs by default", req: reach(QueryRequest{})},
		{what: "pairs", req: reach(QueryRequest{Output: "pairs", Sources: []string{`q"uote`, "<tag>&amp"}})},
		{what: "truncated page", req: reach(QueryRequest{Output: "pairs", Limit: 3})},
		{what: "no pairs", req: reach(QueryRequest{Output: "pairs", Sources: []string{last}})},
		{what: "empty restriction", req: reach(QueryRequest{Output: "pairs", Sources: []string{}})},
		{what: "count", req: reach(QueryRequest{Output: "count", Targets: []string{"é日本"}})},
		{what: "exists", req: reach(QueryRequest{Output: "exists", Sources: []string{"alice"}, Targets: []string{"7"}})},
		{what: "not exists", req: reach(QueryRequest{Output: "exists", Sources: []string{last}, Targets: []string{"alice"}})},
		{what: "paths", req: reach(QueryRequest{Output: "paths", Sources: []string{"alice"}, Targets: []string{"bad\xffutf8"}})},
		{what: "truncated paths", req: reach(QueryRequest{Output: "paths", Sources: []string{"alice"}, Targets: []string{"del\x7f"}, Limit: 1})},
		{what: "no paths", req: reach(QueryRequest{Output: "paths", Sources: []string{last}, Targets: []string{"alice"}})},
		{what: "expr", req: QueryRequest{Graph: "odd", Expr: "knows+", Sources: []string{"line\u2028sep\u2029"}}},
		{what: "every optional field", req: reach(QueryRequest{Limit: 2}), edit: func(res *cfpq.Result) {
			res.Explain = cfpq.Explain{Strategy: cfpq.StrategySourceFrontier, Reason: `a "quoted" <reason>`, Frontier: 5, Saturated: true,
				Passes: []cfpq.PassEvent{{Phase: "frontier", Pass: 1, Products: 2, NNZ: []cfpq.NNZ{{Before: 1, After: 3}}, Frontier: 4, Nodes: 11, Bytes: 640, Duration: 7}}}
			res.Stats = cfpq.Stats{Iterations: 3, Products: 9, Duration: time.Millisecond, PeakBytes: 4096}
		}},
	} {
		ge, res, err := s.do(ctx, c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if c.edit != nil {
			c.edit(res)
		}
		requireSameAnswer(t, c.what, ge, c.req, res)
	}

	ge, err := s.graphEntry("odd")
	if err != nil {
		t.Fatal(err)
	}
	every := make([]cfpq.Pair, 0, len(oddNames)*len(oddNames))
	for i := range oddNames {
		for j := range oddNames {
			every = append(every, cfpq.Pair{I: i, J: j})
		}
	}
	for _, c := range []struct {
		what string
		b    cfpq.PairBatch
	}{
		{"pairs", cfpq.PairBatch{Seq: 1, Pairs: every}},
		{"resync with pairs", cfpq.PairBatch{Seq: 1 << 40, Resync: true, Pairs: every[:3]}},
		{"resync marker", cfpq.PairBatch{Seq: 9, Resync: true}},
		{"no pairs", cfpq.PairBatch{Seq: 2, Pairs: []cfpq.Pair{}}},
	} {
		requireSameEvent(t, c.what, ge, c.b)
	}

	bge, answers, pairs, err := s.queryBatch(ctx, Target{Graph: "odd", Grammar: "reach"}, oddBatch)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBatch(t, "batch", bge, answers, pairs)
}

// FuzzAnswerJSON names a three-node graph's nodes with arbitrary strings
// and checks every output's answer and an SSE event against encoding/json.
func FuzzAnswerJSON(f *testing.F) {
	for _, names := range [][3]string{
		{"alice", "bob", "carol"},
		{`"`, `\`, "\x00\x1f"},
		{"<>&", "\u2028", "\u2029"},
		{"\xff", "\xc3", ""},
		{"", "", ""},
		{"é", "日本", "🙂"},
	} {
		f.Add(names[0], names[1], names[2])
	}
	s := New()
	if err := s.RegisterGraph("g", graph.Cycle(3, "knows"), nil); err != nil {
		f.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", reachGrammar); err != nil {
		f.Fatal(err)
	}
	type answer struct {
		req QueryRequest
		res *cfpq.Result
	}
	var answers []answer
	for _, out := range []string{"pairs", "count", "exists", "paths"} {
		req := QueryRequest{Graph: "g", Grammar: "reach", Nonterminal: "S", Output: out}
		switch out {
		case "pairs":
			req.Limit = 4
		case "paths":
			req.Limit, req.MaxPathLength = 2, 5
			fallthrough
		case "exists":
			req.Sources, req.Targets = []string{"0"}, []string{"2"}
		}
		_, res, err := s.do(ctx, req)
		if err != nil {
			f.Fatal(err)
		}
		answers = append(answers, answer{req, res})
	}
	_, batch, batchPairs, err := s.queryBatch(ctx, Target{Graph: "g", Grammar: "reach"}, []BatchQuerySpec{
		{Nonterminal: "S"},
		{Op: "relation-from", Nonterminal: "S", Sources: []string{"1"}},
		{Op: "has", Nonterminal: "S", From: "0", To: "2"},
		{Op: "count", Nonterminal: "S"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b, c string) {
		ge := &graphEntry{names: graph.NewNames(3, []string{a, b, c})}
		for _, ans := range answers {
			requireSameAnswer(t, ans.req.Output, ge, ans.req, ans.res)
		}
		requireSameEvent(t, "event", ge, cfpq.PairBatch{Seq: 3, Resync: a < b, Pairs: answers[0].res.AllPairs()})
		requireSameBatch(t, "batch", ge, batch, batchPairs)
	})
}

// discardWriter is a ResponseWriter that keeps only its header map, reused
// from request to request, so that what a request allocates is the
// handler's and not a recorder's. Writing an SSE "pairs" event calls
// onEvent.
type discardWriter struct {
	h       http.Header
	status  int
	bytes   int
	onEvent func()
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Flush()               {}

// SetWriteDeadline accepts a deadline, as a connection's writer does.
func (w *discardWriter) SetWriteDeadline(time.Time) error { return nil }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	if w.onEvent != nil && bytes.Contains(p, []byte("event: pairs")) {
		w.onEvent()
	}
	return len(p), nil
}

// replayBody is a request body that can be read again after Reset.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// replayRequest is one POST whose body and response writer are reused.
type replayRequest struct {
	r    *http.Request
	body *replayBody
	raw  []byte
	w    *discardWriter
}

func newReplayRequest(ctx context.Context, path string, body any) *replayRequest {
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	rr := &replayRequest{body: &replayBody{}, raw: raw, w: &discardWriter{h: http.Header{}}}
	rr.r = httptest.NewRequestWithContext(ctx, http.MethodPost, path, nil)
	rr.r.Body = rr.body
	return rr
}

// serve sends the request through h once.
func (rr *replayRequest) serve(h http.Handler) {
	rr.body.Reset(rr.raw)
	clear(rr.w.h)
	rr.w.status, rr.w.bytes = 0, 0
	h.ServeHTTP(rr.w, rr.r)
}

// leastAllocated is the least one call of f allocates over eight
// measurements (runtime.MemStats.TotalAlloc), each after a GC and a call
// of f that refills the pools the GC emptied. The least discards a window
// in which the runtime started an OS thread (its m and g structs land in
// the process-wide count), or sync.Pool dropped what was put back, as it
// does at random under the race detector.
func leastAllocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 8 {
		runtime.GC()
		f()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// fanService serves reach over a knows-fan of n+1 nodes named n<id>: n0
// knows each of the others, so R_S is the n pairs leaving n0.
func fanService(t testing.TB, n int) *Service {
	t.Helper()
	g := graph.New(n + 1)
	names := map[string]int{"n0": 0}
	for id := 1; id <= n; id++ {
		g.AddEdge(0, "knows", id)
		names["n"+strconv.Itoa(id)] = id
	}
	s := New()
	if err := s.RegisterGraph("fan", g, names); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", reachGrammar); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReadAllocatesWhatItAnswers bounds what a read allocates, through
// Handler with a reused discarding writer: a pairs answer walks the pinned
// rows into a pooled buffer written every answerChunk bytes, so a
// 1000-pair page, a whole relation of 20 000 pairs and a target-restricted
// read of it each allocate a constant, whatever the answer's or the
// graph's size; one SSE event of 1001 pairs, replayed to a resuming
// subscriber, allocates no copy of its pairs at all. None copies the
// pairs into a pair list, named pairs or an encoder's buffer (each
// ~32 KiB for the page).
func TestReadAllocatesWhatItAnswers(t *testing.T) {
	s := fanService(t, 1000)
	h := Handler(s)
	page := newReplayRequest(ctx, "/v1/query", QueryRequest{Graph: "fan", Grammar: "reach", Nonterminal: "S", Limit: 1000})
	page.serve(h) // builds the slot
	if page.w.status != http.StatusOK {
		t.Fatalf("page: status %d", page.w.status)
	}
	if alloc := leastAllocated(func() { page.serve(h) }); alloc > 4<<10 {
		t.Errorf("a 1000-pair page allocated %d bytes: want at most 4 KiB", alloc)
	}

	big := Handler(fanService(t, 20000))
	for _, c := range []struct {
		what  string
		req   QueryRequest
		bytes int
	}{
		{"the whole relation", QueryRequest{}, 20000 * len(`{"from":"n0","to":"n1"},`)},
		{"a target-restricted read", QueryRequest{Targets: []string{"n7", "n19999"}}, 2 * len(`{"from":"n0","to":"n1"},`)},
	} {
		c.req.Graph, c.req.Grammar, c.req.Nonterminal = "fan", "reach", "S"
		rr := newReplayRequest(ctx, "/v1/query", c.req)
		rr.serve(big)
		if rr.w.status != http.StatusOK || rr.w.bytes < c.bytes {
			t.Fatalf("%s: status %d, %d bytes", c.what, rr.w.status, rr.w.bytes)
		}
		if alloc := leastAllocated(func() { rr.serve(big) }); alloc > 4<<10 {
			t.Errorf("%s allocated %d bytes: want at most 4 KiB", c.what, alloc)
		}
	}

	// The handle retains updates for resuming once it has had a
	// subscriber. Then one edge from a new node into the hub derives the
	// 1001 pairs leaving it.
	subReq := SubscribeRequest{Graph: "fan", Grammar: "reach", Nonterminal: "S"}
	first, cancel := context.WithCancel(ctx)
	if _, _, err := s.subscribe(first, subReq, false, 0); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := s.AddEdges(ctx, "fan", []EdgeSpec{{From: "new", Label: "knows", To: "n0"}}); err != nil {
		t.Fatal(err)
	}
	resume := newReplayRequest(ctx, "/v1/subscribe", subReq)
	resume.r.Header.Set("Last-Event-ID", "0")
	base := resume.r
	alloc := leastAllocated(func() {
		// The handler returns once it has written the event.
		subCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		resume.r, resume.w.onEvent = base.WithContext(subCtx), cancel
		resume.serve(h)
	})
	if resume.w.status != http.StatusOK || resume.w.bytes < 1001*len(`{"from":"new","to":"n0"},`) {
		t.Fatalf("subscribe: status %d, %d bytes", resume.w.status, resume.w.bytes)
	}
	if alloc > 12<<10 {
		t.Errorf("a resumed subscription's 1001-pair event allocated %d bytes: want at most 12 KiB", alloc)
	}
}

// BenchmarkReadClasses prices the five serve_read op classes in process:
// POST /v1/query on the paper's g3 with Query 1 (nodes named n<id>, as the
// benchmark uploads them) through Handler, with a reused discarding writer.
// The rows: exists and pairs_from at the source of the relation's middle
// pair, count, a 1000-pair page, the whole relation (pairs_all, 71 632
// pairs), and rpq_from (subClassOf+ from that source).
//
//	go test -run='^$' -bench=ReadClasses -benchmem ./internal/server
func BenchmarkReadClasses(b *testing.B) {
	d, ok := dataset.ByName("g3")
	if !ok {
		b.Fatal("no g3 dataset")
	}
	g := d.Build()
	names := make(map[string]int, g.Nodes())
	for id := range g.Nodes() {
		names["n"+strconv.Itoa(id)] = id
	}
	s := New()
	if err := s.RegisterGraph("g3", g, names); err != nil {
		b.Fatal(err)
	}
	if err := s.RegisterGrammar("query1", dataset.Query1().String()); err != nil {
		b.Fatal(err)
	}
	rel, err := s.Do(ctx, QueryRequest{Graph: "g3", Grammar: "query1", Nonterminal: "S"})
	if err != nil {
		b.Fatal(err)
	}
	mid := rel.Pairs[len(rel.Pairs)/2]
	q := func(fields QueryRequest) QueryRequest {
		fields.Graph, fields.Grammar, fields.Nonterminal = "g3", "query1", "S"
		return fields
	}
	h := Handler(s)
	for _, c := range []struct {
		class string
		req   QueryRequest
	}{
		{"exists", q(QueryRequest{Output: "exists", Sources: []string{mid.From}, Targets: []string{mid.To}})},
		{"count", q(QueryRequest{Output: "count"})},
		{"pairs_from", q(QueryRequest{Output: "pairs", Sources: []string{mid.From}})},
		{"pairs_page", q(QueryRequest{Output: "pairs", Limit: 1000})},
		{"pairs_all", q(QueryRequest{Output: "pairs"})},
		{"rpq_from", QueryRequest{Graph: "g3", Expr: "subClassOf+", Sources: []string{mid.From}, Output: "pairs"}},
	} {
		b.Run(c.class, func(b *testing.B) {
			rr := newReplayRequest(ctx, "/v1/query", c.req)
			rr.serve(h)
			if rr.w.status != http.StatusOK {
				b.Fatalf("%s: status %d", c.class, rr.w.status)
			}
			for b.Loop() {
				rr.serve(h)
			}
			b.ReportMetric(float64(rr.w.bytes), "resp_bytes")
		})
	}
}

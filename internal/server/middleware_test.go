package server

// Tests of the envelope: the request log line against slog's TextHandler,
// the backend label of requests that resolved a slot and then failed, and
// what a cached read allocates through Handler with the request log on.

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRequestLineMatchesSlog holds appendRequestLine to the bytes
// slog.NewTextHandler writes for logger.Info("request", ...) at the same
// time, for values that are quoted for every reason slog quotes, and for
// times at the edges of a millisecond, in two zones.
func TestRequestLineMatchesSlog(t *testing.T) {
	east := time.FixedZone("east", 5*3600+30*60)
	times := []time.Time{
		time.Date(2026, 10, 20, 1, 39, 47, 0, time.UTC),
		time.Date(2026, 10, 20, 1, 39, 47, 999_999_999, time.UTC),
		time.Date(2026, 10, 20, 1, 39, 47, 100_000, east),
		time.Date(1999, 12, 31, 23, 59, 59, 123_456_789, east),
	}
	values := []string{
		"", "plain", "0123456789abcdef", "with space", `q"uote`, "a=b", `back\slash`,
		"tab\t", "nl\n", "ctl\x01", "del\x7f", "é日本", "bad\xffutf8", "\ufffd", "nb\u00a0sp",
		"line\u2028sep", "zw\u200bsp", "/v1/graphs/{name}", "[::1]:5555", "127.0.0.1:80",
	}
	durations := []time.Duration{0, 999, 1500 * time.Microsecond, 2*time.Second + 5*time.Millisecond}
	var want bytes.Buffer
	h := slog.NewTextHandler(&want, nil)
	for i, v := range values {
		at := times[i%len(times)]
		d := durations[i%len(durations)]
		id, method, route, path, remote := v, "POST", "POST /v1/query", "/v1/query/"+v, v
		switch i % 3 {
		case 1:
			method, route = v, v
		case 2:
			id, path, remote = "id-"+v, v, "10.0.0.1:"+v
		}
		want.Reset()
		rec := slog.NewRecord(at, slog.LevelInfo, "request", 0)
		rec.Add("id", id, "method", method, "route", route, "path", path,
			"status", 200+i, "duration", d, "remote", remote)
		if err := h.Handle(context.Background(), rec); err != nil {
			t.Fatal(err)
		}
		got := appendRequestLine(nil, at, id, method, route, path, 200+i, d, remote)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("value %q:\n got %q\nwant %q", v, got, want.Bytes())
		}
	}
}

// TestRequestLogWritesEachLineOnce: through Handler, each request's line
// reaches the request log's writer in one Write, and a *slog.Logger given
// in its place logs the same line.
func TestRequestLogWritesEachLineOnce(t *testing.T) {
	var w writeCounter
	var sl bytes.Buffer
	for _, h := range []http.Handler{
		Handler(New(), WithRequestLog(&w)),
		Handler(New(), WithRequestLog(slog.New(slog.NewTextHandler(&sl, nil)))),
	} {
		for range 3 {
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			req.Header.Set("X-Request-ID", "req-7")
			h.ServeHTTP(&discardWriter{h: http.Header{}}, req)
		}
	}
	if w.writes != 3 || strings.Count(w.buf.String(), "\n") != 3 {
		t.Fatalf("3 requests made %d writes of %q", w.writes, w.buf.String())
	}
	// The lines differ in time and duration only.
	clock := regexp.MustCompile(`time=\S+ |duration=\S+ `)
	got, want := clock.ReplaceAllString(w.buf.String(), ""), clock.ReplaceAllString(sl.String(), "")
	if got != want || !strings.HasPrefix(got, `level=INFO msg=request id=req-7 method=GET route="GET /healthz" path=/healthz status=200 remote=192.0.2.1:1234`+"\n") {
		t.Fatalf("request log:\n%s\nslog:\n%s", got, want)
	}
}

// writeCounter counts the writes it takes.
type writeCounter struct {
	buf    bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestRequestHistogramBackendOfFailedReads: a request that resolved its
// slot and then failed — an unknown non-terminal, an unknown node — is
// labelled with the slot's backend, and one that named no slot — an
// unknown graph, grammar or backend — with none.
func TestRequestHistogramBackendOfFailedReads(t *testing.T) {
	srv := queryTestServer(t)
	for _, c := range []struct {
		body   string
		status int
	}{
		{`{"graph":"social","grammar":"reach","nonterminal":"T"}`, http.StatusNotFound},
		{`{"graph":"social","grammar":"reach","backend":"sparse-parallel","nonterminal":"S","sources":["nobody"]}`, http.StatusNotFound},
		{`{"graph":"nowhere","grammar":"reach","nonterminal":"S"}`, http.StatusNotFound},
		{`{"graph":"social","grammar":"none","nonterminal":"S"}`, http.StatusNotFound},
		{`{"graph":"social","grammar":"reach","backend":"gpu","nonterminal":"S"}`, http.StatusBadRequest},
	} {
		if code, resp := httpDo(t, srv, http.MethodPost, "/v1/query", c.body); code != c.status {
			t.Fatalf("%s: %d %v, want %d", c.body, code, resp, c.status)
		}
	}
	samples := scalarSamples(t, scrape(t, srv))
	for series, want := range map[string]float64{
		`route="POST /v1/query",backend="sparse",status="404"`: 2,
		`route="POST /v1/query",backend="",status="404"`:       2,
		`route="POST /v1/query",backend="",status="400"`:       1,
	} {
		if got := samples["cfpqd_http_request_duration_seconds_count{"+series+"}"]; got != want {
			t.Errorf("{%s}: %v requests, want %v", series, got, want)
		}
	}
}

// cachedReadAllocs bounds the allocations of one cached exists read
// through Handler with the request log on — 30 before the envelope was cut
// down, 13 before the query request stayed on the stack and the
// histogram's series lookup stopped allocating: what is left is the status
// writer and its response controller, a minted request id, the body
// reader, the decoded request's strings and lists, and the library's
// answer.
const cachedReadAllocs = 11

// TestCachedReadAllocations holds a cached exists read to cachedReadAllocs.
// It counts the least of twenty reads: the race detector drops what
// sync.Pool is given back at random, and a read after a drop allocates
// the pooled buffer again.
func TestCachedReadAllocations(t *testing.T) {
	s := fanService(t, 100)
	h := Handler(s, WithRequestLog(io.Discard))
	rr := newReplayRequest(ctx, "/v1/query", QueryRequest{
		Graph: "fan", Grammar: "reach", Nonterminal: "S", Output: "exists",
		Sources: []string{"n0"}, Targets: []string{"n7"},
	})
	rr.serve(h) // builds the slot
	if rr.w.status != http.StatusOK {
		t.Fatalf("status %d", rr.w.status)
	}
	least := math.MaxFloat64
	for range 20 {
		least = min(least, testing.AllocsPerRun(1, func() { rr.serve(h) }))
	}
	if least > cachedReadAllocs {
		t.Errorf("a cached exists read allocated %v times: want at most %d", least, cachedReadAllocs)
	}
}

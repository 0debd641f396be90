package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cfpq/internal/obs"
)

// parseBucketLine splits one histogram bucket sample into its series key
// (family + labels minus le), the le bound, and the cumulative count.
func parseBucketLine(line string) (key, le string, count uint64, ok bool) {
	open := strings.Index(line, "_bucket{")
	end := strings.LastIndex(line, "} ")
	if open < 0 || end < open {
		return "", "", 0, false
	}
	labels := line[open+len("_bucket{") : end]
	leAt := strings.LastIndex(labels, `le="`)
	if leAt < 0 {
		return "", "", 0, false
	}
	le = strings.TrimSuffix(labels[leAt+len(`le="`):], `"`)
	rest := strings.TrimSuffix(labels[:leAt], ",")
	n, err := strconv.ParseUint(strings.TrimSpace(line[end+2:]), 10, 64)
	if err != nil {
		return "", "", 0, false
	}
	return line[:open] + "{" + rest + "}", le, n, true
}

// assertScrapeWellFormed checks every histogram in one /metrics body:
// within each series, cumulative bucket counts never decrease as le grows
// (the exposition writes buckets in ascending-le order), and the +Inf
// bucket equals the series _count.
func assertScrapeWellFormed(t *testing.T, body string) {
	t.Helper()
	lastCount := map[string]uint64{}
	infCount := map[string]uint64{}
	for _, line := range strings.Split(body, "\n") {
		key, le, n, ok := parseBucketLine(line)
		if !ok {
			continue
		}
		if prev, seen := lastCount[key]; seen && n < prev {
			t.Fatalf("bucket counts not monotone for %s: %d after %d (le=%s)", key, n, prev, le)
		}
		lastCount[key] = n
		if le == "+Inf" {
			infCount[key] = n
		}
	}
	for _, line := range strings.Split(body, "\n") {
		name, rest, found := strings.Cut(line, "_count{")
		if !found || strings.HasPrefix(line, "#") {
			continue
		}
		labels, val, found := strings.Cut(rest, "} ")
		if !found {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		key := name + "{" + labels + "}"
		if inf, seen := infCount[key]; seen && inf != n {
			t.Fatalf("+Inf bucket %d != count %d for %s", inf, n, key)
		}
	}
}

func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	return readAll(t, resp)
}

func TestMetricsEndpointUnderConcurrentQueries(t *testing.T) {
	svc := New()
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	if code, body := httpDo(t, srv, http.MethodPut, "/v1/graphs/g?format=edgelist",
		"a knows b\nb knows c\nc knows d\n"); code != http.StatusOK {
		t.Fatalf("PUT graph: %d %v", code, body)
	}
	if code, body := httpDo(t, srv, http.MethodPut, "/v1/grammars/r",
		"S -> knows | knows S"); code != http.StatusOK {
		t.Fatalf("PUT grammar: %d %v", code, body)
	}

	// Queries race metric scrapes: every scrape observed mid-flight must
	// still be well-formed (monotone cumulative buckets, +Inf == count).
	// Goroutines only collect; the test goroutine asserts.
	var wg sync.WaitGroup
	const queriers, scrapers, rounds = 4, 2, 25
	errs := make(chan error, queriers*rounds)
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json",
					strings.NewReader(`{"graph":"g","grammar":"r","nonterminal":"S","sources":["a"]}`))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	bodies := make([][]string, scrapers)
	for sc := 0; sc < scrapers; sc++ {
		wg.Add(1)
		go func(sc int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := srv.Client().Get(srv.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				bodies[sc] = append(bodies[sc], string(raw))
			}
		}(sc)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, got := range bodies {
		for _, body := range got {
			assertScrapeWellFormed(t, body)
		}
	}

	final := scrape(t, srv)
	assertScrapeWellFormed(t, final)
	// The query route's latency series carries the resolved slot's backend
	// as a label.
	wantSeries := `cfpqd_http_request_duration_seconds_bucket{route="POST /v1/query",backend="` + DefaultBackend + `",status="200"`
	if !strings.Contains(final, wantSeries) {
		t.Errorf("scrape missing query latency series %q", wantSeries)
	}
	for _, want := range []string{
		"cfpqd_build_info{",
		"cfpqd_process_uptime_seconds",
		"cfpqd_queries_total",
		"cfpqd_index_build_duration_seconds_bucket{",
		"cfpqd_subscription_resyncs_total",
		"cfpqd_replication_lag_records",
	} {
		if !strings.Contains(final, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestRequestHistogramBackendIsCanonical: every route that resolves an
// index slot labels its latency series with the slot's canonical backend —
// an alias ("sparse-parallel") lands in the "sparse" series, and the batch
// and subscribe routes carry the label too.
func TestRequestHistogramBackendIsCanonical(t *testing.T) {
	srv := queryTestServer(t)
	for _, be := range []string{"sparse-parallel", "sparse", ""} {
		body := `{"graph":"social","grammar":"reach","nonterminal":"S","output":"count","backend":"` + be + `"}`
		if code, resp := httpDo(t, srv, http.MethodPost, "/v1/query", body); code != http.StatusOK {
			t.Fatalf("query on backend %q: %d %v", be, code, resp)
		}
	}
	if code, resp := httpDo(t, srv, http.MethodPost, "/v1/query/batch",
		`{"graph":"social","grammar":"reach","backend":"sparse-parallel","queries":[{"op":"count","nonterminal":"S"}]}`); code != http.StatusOK {
		t.Fatalf("batch: %d %v", code, resp)
	}
	dialSSE(t, srv, `{"graph":"social","grammar":"reach","nonterminal":"S"}`, "").close()

	const family = "cfpqd_http_request_duration_seconds_count"
	series := func(route string) string {
		return fmt.Sprintf(`%s{route=%q,backend="sparse",status="200"}`, family, route)
	}
	// The subscribe handler returns, and its request is observed, only
	// once the closed stream's context ends.
	var samples map[string]float64
	waitFor(t, 5*time.Second, func() bool {
		samples = scalarSamples(t, scrape(t, srv))
		return samples[series("POST /v1/subscribe")] == 1
	}, "the closed subscribe stream's latency sample")
	if got := samples[series("POST /v1/query")]; got != 3 {
		t.Errorf("%s = %v, want 3 (sparse-parallel, sparse and the default in one series)", series("POST /v1/query"), got)
	}
	if got := samples[series("POST /v1/query/batch")]; got != 1 {
		t.Errorf("%s = %v, want 1", series("POST /v1/query/batch"), got)
	}
	for name := range samples {
		if strings.HasPrefix(name, family) && strings.Contains(name, `backend="sparse-parallel"`) {
			t.Errorf("alias backend opened its own series: %s", name)
		}
	}
}

// TestRequestHistogramRouteLabels: a request's route label is the pattern
// of the route that served it, wildcards unexpanded and whatever its
// status, and "unmatched" for a 404 or 405 the mux answered itself.
func TestRequestHistogramRouteLabels(t *testing.T) {
	srv := queryTestServer(t)
	for _, c := range []struct {
		method, path string
		status       int
	}{
		{http.MethodGet, "/v1/graphs", http.StatusOK},
		{http.MethodGet, "/v1/graphs/nobody", http.StatusNotFound},
		{http.MethodGet, "/v1/nowhere", http.StatusNotFound},
		{http.MethodDelete, "/v1/graphs", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != c.status {
			t.Fatalf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.status)
		}
	}
	samples := scalarSamples(t, scrape(t, srv))
	for _, series := range []string{
		`route="GET /v1/graphs",backend="",status="200"`,
		`route="GET /v1/graphs/{name}",backend="",status="404"`,
		`route="unmatched",backend="",status="404"`,
		`route="unmatched",backend="",status="405"`,
	} {
		if got := samples["cfpqd_http_request_duration_seconds_count{"+series+"}"]; got != 1 {
			t.Errorf("requests labelled {%s}: %v, want 1", series, got)
		}
	}
}

// TestMetricNamesAreVetted pins the registered metric catalogue to a golden
// list, so a renamed, added or dynamically built metric shows up in review
// as an edit to this test. (Registration already panics on a malformed name
// — every test that calls New() trips it — and the walk below keeps the
// catalogue honest against the same rules: snake_case, _total counters,
// unit suffixes elsewhere.)
func TestMetricNamesAreVetted(t *testing.T) {
	want := []string{
		"cfpqd_http_request_duration_seconds",
		"cfpqd_wal_fsync_duration_seconds",
		"cfpqd_index_build_duration_seconds",
		"cfpqd_warm_start_duration_seconds",
		"cfpqd_index_swap_duration_seconds",
		"cfpqd_queries_total",
		"cfpqd_index_builds_total",
		"cfpqd_expr_index_builds_total",
		"cfpqd_warm_starts_total",
		"cfpqd_updates_total",
		"cfpqd_edges_added_total",
		"cfpqd_budget_rejections_total",
		"cfpqd_persist_errors_total",
		"cfpqd_index_saves_total",
		"cfpqd_replicated_batches_total",
		"cfpqd_replicated_edges_total",
		"cfpqd_subscriptions_total",
		"cfpqd_subscription_events_total",
		"cfpqd_subscription_pairs_total",
		"cfpqd_subscription_resyncs_total",
		"cfpqd_build_info",
		"cfpqd_process_uptime_seconds",
		"cfpqd_replication_lag_records",
		"cfpqd_replication_lag_bytes",
		"cfpqd_replication_lag_age_seconds",
		"cfpqd_subscriptions_active_entries",
		"cfpqd_store_wal_bytes",
		"cfpqd_wal_appends_total",
		"cfpqd_wal_written_bytes_total",
		"cfpqd_wal_fsyncs_total",
	}
	got := New().MetricsRegistry().Names()
	if !slices.Equal(got, want) {
		t.Errorf("registered metrics differ from the golden list:\n got  %q\n want %q", got, want)
	}
	for _, name := range got {
		kind := obs.KindGauge
		if strings.HasSuffix(name, "_total") {
			kind = obs.KindCounter
		}
		if err := obs.CheckName(kind, name); err != nil {
			t.Errorf("metric %s: %v", name, err)
		}
	}
}

func TestHealthzCarriesBuildInfoAndRequestID(t *testing.T) {
	srv := httptest.NewServer(Handler(New()))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "test-id-42")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "test-id-42" {
		t.Errorf("X-Request-ID = %q, want echoed test-id-42", got)
	}
	for _, want := range []string{`"status":"ok"`, `"version":`, `"revision":`, `"uptime_seconds":`} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz missing %s in %s", want, body)
		}
	}

	// A request without the header gets a freshly minted id.
	resp2, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp2)
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID minted")
	}

	// An id of 64 visible ASCII bytes is echoed; a longer one, or one
	// with a byte outside visible ASCII, is replaced by a minted one.
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, c := range []struct {
		id   string
		echo bool
	}{
		{strings.Repeat("~", 64), true},
		{strings.Repeat("x", 65), false},
		{strings.Repeat("x", 1<<16), false},
		{"id-é", false},
		{"id 7", false},
	} {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", c.id)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		got := resp.Header.Get("X-Request-ID")
		if c.echo && got != c.id || !c.echo && !minted.MatchString(got) {
			t.Errorf("sent a %d-byte X-Request-ID %.20q…, got %.20q (echo %v)", len(c.id), c.id, got, c.echo)
		}
	}
}

func TestQueryStatsDurationOverTheWire(t *testing.T) {
	srv := httptest.NewServer(Handler(New()))
	defer srv.Close()
	if code, body := httpDo(t, srv, http.MethodPut, "/v1/graphs/g?format=edgelist",
		"a knows b\n"); code != http.StatusOK {
		t.Fatalf("PUT graph: %d %v", code, body)
	}
	if code, body := httpDo(t, srv, http.MethodPut, "/v1/grammars/r",
		"S -> knows"); code != http.StatusOK {
		t.Fatalf("PUT grammar: %d %v", code, body)
	}
	for i := 0; i < 2; i++ {
		// The second round is a pure cached read; it must still report a
		// positive duration.
		code, body := httpDo(t, srv, http.MethodPost, "/v1/query",
			`{"graph":"g","grammar":"r","nonterminal":"S"}`)
		if code != http.StatusOK {
			t.Fatalf("query %d: %d %v", i, code, body)
		}
		stats, ok := body["stats"].(map[string]any)
		if !ok {
			t.Fatalf("query %d: no stats in %v", i, body)
		}
		if d, _ := stats["duration_ns"].(float64); d <= 0 {
			t.Errorf("query %d: stats.duration_ns = %v, want > 0", i, stats["duration_ns"])
		}
	}

	// trace:true returns the passes of the closure the request itself ran:
	// the first query of a fresh expression (or grammar) builds its slot and
	// reports that build's passes; the next one is a pass-less cached read.
	for _, q := range []string{`"expr":"knows+"`, `"grammar":"r2","nonterminal":"S"`} {
		if code, body := httpDo(t, srv, http.MethodPut, "/v1/grammars/r2", "S -> knows S | knows"); code != http.StatusOK {
			t.Fatalf("PUT grammar: %d %v", code, body)
		}
		for i, wantPasses := range []bool{true, false} {
			code, body := httpDo(t, srv, http.MethodPost, "/v1/query", `{"graph":"g",`+q+`,"trace":true}`)
			if code != http.StatusOK {
				t.Fatalf("traced query %s #%d: %d %v", q, i, code, body)
			}
			explain, _ := body["explain"].(map[string]any)
			passes, _ := explain["passes"].([]any)
			if (len(passes) > 0) != wantPasses || explain["strategy"] != "cached-read" {
				t.Errorf("traced query %s #%d: %d passes, strategy %v; want passes=%v and cached-read",
					q, i, len(passes), explain["strategy"], wantPasses)
			}
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// scalarSamples parses the counter and gauge sample lines of one /metrics
// body into series ("name" or `name{label="v"}`) → value.
func scalarSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		at := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[at+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		out[line[:at]] = v
	}
	return out
}

// TestDebugVarsAgreesWithMetrics is the instrument-agreement test: after a
// run that moves every kind of counter — a warm start from a store, a
// cached read, an expr read (which builds its slot), a 404, a batch with
// one bad spec, an AddEdges, a subscriber the window has passed while
// still connected — every number under "cfpqd" in /debug/vars equals the
// /metrics sample it is rendered from.
func TestDebugVarsAgreesWithMetrics(t *testing.T) {
	dir := t.TempDir()
	var edges strings.Builder
	const chain = 80 // updates published to one subscriber; past its window (64)
	for i := 0; i < chain; i++ {
		fmt.Fprintf(&edges, "n%d spare n%d\n", i, i+1) // declares the nodes; "knows" edges come later
	}
	s := persistentService(t, dir)
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader(edges.String())); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("r", "S -> knows | knows S"); err != nil {
		t.Fatal(err)
	}
	tgt := Target{Graph: "g", Grammar: "r"}
	if _, err := count(ctx, s, tgt, "S"); err != nil { // builds and persists the index
		t.Fatal(err)
	}
	s = reopen(t, s, dir) // counters restart from zero; the index warm-starts
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	if code, body := postQuery(t, srv, "g", "r", "S", `"output":"count"`); code != http.StatusOK {
		t.Fatalf("cached read: %d %v", code, body)
	}
	if code, body := httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"g","expr":"spare+","output":"count","sources":["n0"]}`); code != http.StatusOK {
		t.Fatalf("expr read: %d %v", code, body)
	}
	if code, body := postQuery(t, srv, "g", "r", "Nope", ""); code != http.StatusNotFound {
		t.Fatalf("unknown non-terminal: %d %v", code, body)
	}
	if code, body := httpDo(t, srv, http.MethodPost, "/v1/query/batch",
		`{"graph":"g","grammar":"r","queries":[{"op":"count","nonterminal":"S"},{"op":"count","nonterminal":"Nope"}]}`); code != http.StatusOK {
		t.Fatalf("batch: %d %v", code, body)
	}
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub, _, err := s.subscribe(subCtx, SubscribeRequest{Graph: "g", Grammar: "r", Nonterminal: "S"}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One update per batch, none read: the window passes the live
	// subscription's position.
	for i := 0; i < chain; i++ {
		if code, body := httpDo(t, srv, http.MethodPost, "/v1/graphs/g/edges",
			fmt.Sprintf(`{"edges":[{"from":"n%d","label":"knows","to":"n%d"}]}`, i, i+1)); code != http.StatusOK {
			t.Fatalf("POST edges %d: %d %v", i, code, body)
		}
	}
	if b, _ := sub.Next(); !b.Resync {
		t.Fatalf("test is vacuous: the unread subscriber read %+v, not a Resync marker", b)
	}

	_, vars := httpDo(t, srv, http.MethodGet, "/debug/vars", "")
	metrics := scalarSamples(t, scrape(t, srv))
	series := map[string]string{} // /debug/vars key → /metrics family
	for name, key := range debugAliases {
		series[key] = name
	}
	cfpqd := vars["cfpqd"].(map[string]any)
	agree := func(key, series string, got any) {
		want, ok := metrics[series]
		if !ok {
			t.Errorf("cfpqd.%s: no /metrics sample %s", key, series)
		} else if got != want {
			t.Errorf("cfpqd.%s = %v, /metrics %s = %v", key, got, series, want)
		}
	}
	for key, v := range cfpqd {
		name := series[key]
		if name == "" {
			name = "cfpqd_" + key + "_total"
		}
		agree(key, name, v)
	}
	for key, want := range map[string]float64{
		"warm_starts": 1, "index_builds": 0, "wal_appends": chain, "updates": chain,
		"subscription_resyncs": 0, "subscriptions_active": 1,
	} {
		if got, _ := cfpqd[key].(float64); got != want {
			t.Errorf("cfpqd.%s = %v, want %v", key, cfpqd[key], want)
		}
	}

	// Answered queries only — cached read, expr read, one batch spec; not
	// the 404, the failed spec or the subscribe.
	if q := cfpqd["queries"]; q != 3.0 {
		t.Errorf("queries = %v, want 3", q)
	}

	// Ending the subscription takes it out of the active count.
	cancel()
	waitFor(t, 5*time.Second, func() bool {
		return scalarSamples(t, scrape(t, srv))["cfpqd_subscriptions_active_entries"] == 0
	}, "subscription deregistration")
}

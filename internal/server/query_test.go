package server

// Tests of the declarative query path: POST /v1/query across outputs and
// languages, the uniform {"error": ...} envelope with correct status
// codes, and the /debug/vars query counter.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"cfpq"
	"cfpq/internal/graph"
)

// queryTestServer builds a service with the social graph and reach
// grammar the HTTP tests use.
func queryTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler(New()))
	t.Cleanup(srv.Close)
	code, body := httpDo(t, srv, http.MethodPut, "/v1/graphs/social?format=edgelist",
		"alice knows bob\nbob knows carol\ncarol knows dave\n")
	if code != http.StatusOK {
		t.Fatalf("PUT graph: %d %v", code, body)
	}
	code, body = httpDo(t, srv, http.MethodPut, "/v1/grammars/reach", "S -> knows | knows S")
	if code != http.StatusOK {
		t.Fatalf("PUT grammar: %d %v", code, body)
	}
	return srv
}

func TestHTTPDeclarativeQuery(t *testing.T) {
	srv := queryTestServer(t)

	// pairs (default output), unrestricted.
	code, body := httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","grammar":"reach","nonterminal":"S"}`)
	if code != http.StatusOK || body["count"].(float64) != 6 {
		t.Fatalf("pairs: %d %v", code, body)
	}
	explain := body["explain"].(map[string]any)
	if explain["strategy"] != "cached-read" {
		t.Fatalf("pairs explain: %v", explain)
	}

	// exists with a name-addressed pair.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","grammar":"reach","nonterminal":"S","output":"exists","sources":["alice"],"targets":["dave"]}`)
	if code != http.StatusOK || body["exists"] != true {
		t.Fatalf("exists: %d %v", code, body)
	}

	// count restricted to targets.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","grammar":"reach","nonterminal":"S","output":"count","targets":["dave"]}`)
	if code != http.StatusOK || body["count"].(float64) != 3 {
		t.Fatalf("target-restricted count: %d %v", code, body)
	}

	// paths between one pair, with names in the steps.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","grammar":"reach","nonterminal":"S","output":"paths","sources":["alice"],"targets":["carol"],"limit":4}`)
	if code != http.StatusOK {
		t.Fatalf("paths: %d %v", code, body)
	}
	paths := body["paths"].([]any)
	if len(paths) != 1 {
		t.Fatalf("paths: %v", body)
	}
	step := paths[0].([]any)[0].(map[string]any)
	if step["from"] != "alice" || step["label"] != "knows" {
		t.Fatalf("path step: %v", step)
	}

	// An RPQ expression, target-restricted: answered from its own cached
	// slot, like a grammar query.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","expr":"knows+","output":"count","targets":["dave"]}`)
	if code != http.StatusOK || body["count"].(float64) != 3 {
		t.Fatalf("expr: %d %v", code, body)
	}
	if explain := body["explain"].(map[string]any); explain["strategy"] != "cached-read" {
		t.Fatalf("expr explain: %v", explain)
	}
}

// TestHTTPErrorEnvelope checks that every failure mode of the query
// endpoints answers the same {"error": ...} JSON envelope with the right
// status code; request-validation failures additionally carry a "field"
// naming the offending request field (the structured cfpq.RequestError on
// the wire).
func TestHTTPErrorEnvelope(t *testing.T) {
	srv := queryTestServer(t)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		field  string
	}{
		{"malformed body", http.MethodPost, "/v1/query", `{"graph":`, http.StatusBadRequest, ""},
		{"non-JSON body", http.MethodPost, "/v1/query", `garbage`, http.StatusBadRequest, ""},
		{"no graph", http.MethodPost, "/v1/query", `{"grammar":"reach","nonterminal":"S"}`, http.StatusBadRequest, ""},
		{"no language", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"reach"}`, http.StatusBadRequest, ""},
		{"two languages", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"reach","nonterminal":"S","expr":"a"}`, http.StatusBadRequest, ""},
		{"bad output", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"reach","nonterminal":"S","output":"nope"}`, http.StatusBadRequest, "output"},
		{"negative limit", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"reach","nonterminal":"S","limit":-1}`, http.StatusBadRequest, "limit"},
		{"limited count", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"reach","nonterminal":"S","output":"count","limit":3}`, http.StatusBadRequest, "limit"},
		{"unknown graph", http.MethodPost, "/v1/query", `{"graph":"nope","grammar":"reach","nonterminal":"S"}`, http.StatusNotFound, ""},
		{"unknown grammar", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"nope","nonterminal":"S"}`, http.StatusNotFound, ""},
		{"unknown nonterminal", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"reach","nonterminal":"Nope"}`, http.StatusNotFound, ""},
		{"unknown node", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"reach","nonterminal":"S","sources":["nobody"]}`, http.StatusNotFound, ""},
		{"node id out of range", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"reach","nonterminal":"S","sources":["99"]}`, http.StatusBadRequest, ""},
		{"bad backend", http.MethodPost, "/v1/query", `{"graph":"social","grammar":"reach","nonterminal":"S","backend":"gpu"}`, http.StatusBadRequest, ""},
		{"unknown expr graph", http.MethodPost, "/v1/query", `{"graph":"nope","expr":"knows+"}`, http.StatusNotFound, ""},
		{"bad expr", http.MethodPost, "/v1/query", `{"graph":"social","expr":"(("}`, http.StatusBadRequest, ""},
		{"batch malformed body", http.MethodPost, "/v1/query/batch", `{"queries":`, http.StatusBadRequest, ""},
		{"snapshot without store", http.MethodPost, "/v1/snapshot", "", http.StatusConflict, ""},
	}
	check := func(name string, code int, body map[string]any, status int, field string) {
		t.Helper()
		if code != status {
			t.Errorf("%s: status %d, want %d (%v)", name, code, status, body)
		}
		msg, ok := body["error"].(string)
		if !ok || msg == "" {
			t.Errorf("%s: missing error envelope: %v", name, body)
		}
		want := 1
		if field != "" {
			want = 2
			if body["field"] != field {
				t.Errorf("%s: field %v, want %q", name, body["field"], field)
			}
		}
		if len(body) != want {
			t.Errorf("%s: envelope carries extra fields: %v", name, body)
		}
	}
	for _, tc := range cases {
		code, body := httpDo(t, srv, tc.method, tc.path, tc.body)
		check(tc.name, code, body, tc.status, tc.field)
	}

	// A failed store write is the server's fault: 500 on every route that
	// writes the store, whether the store was closed or lost its directory
	// too.
	for _, store := range []struct {
		what   string
		broken bool
	}{{"store closed", false}, {"store closed, directory gone", true}} {
		srv := closedStoreServer(t, store.broken)
		for _, tc := range []struct{ name, method, path, body string }{
			{"edges", http.MethodPost, "/v1/graphs/social/edges", `{"edges":[{"from":"alice","label":"knows","to":"carol"}]}`},
			{"graph", http.MethodPut, "/v1/graphs/other?format=edgelist", "x knows y\n"},
			{"grammar", http.MethodPut, "/v1/grammars/other", "S -> knows"},
			{"snapshot", http.MethodPost, "/v1/snapshot", ""},
		} {
			code, body := httpDo(t, srv, tc.method, tc.path, tc.body)
			check(tc.name+", "+store.what, code, body, http.StatusInternalServerError, "")
		}
	}

	// Input the store cannot frame is still the request's fault: 400.
	durable := httptest.NewServer(Handler(persistentService(t, t.TempDir())))
	t.Cleanup(durable.Close)
	if code, body := httpDo(t, durable, http.MethodPut, "/v1/graphs/social?format=edgelist", "alice knows bob\n"); code != http.StatusOK {
		t.Fatalf("PUT graph: %d %v", code, body)
	}
	long := strings.Repeat("n", 1<<16)
	for _, tc := range []struct{ name, method, path, body string }{
		{"graph, name too long for the store", http.MethodPut, "/v1/graphs/long?format=edgelist", long + " knows bob\n"},
		{"edges, token too long for the store", http.MethodPost, "/v1/graphs/social/edges", `{"edges":[{"from":"` + long + `","label":"knows","to":"bob"}]}`},
	} {
		code, body := httpDo(t, durable, tc.method, tc.path, tc.body)
		check(tc.name, code, body, http.StatusBadRequest, "")
	}

	// A body over maxDocumentBytes is 413 on every route that reads one.
	// The edge-list upload streams past the limit for real, over the wire:
	// its loader holds a line at a time. The routes that buffer their body
	// are driven in process with a body that ends in the error the limit
	// reader stops at, so the test holds no 64 MiB buffer.
	code, resp := httpSend(t, srv, http.MethodPut, "/v1/graphs/big?format=edgelist",
		io.LimitReader(commentLines{}, maxDocumentBytes+1<<10))
	check("edge-list upload over the body limit", code, resp, http.StatusRequestEntityTooLarge, "")
	h := Handler(New())
	for _, tc := range []struct{ method, path, prefix string }{
		{http.MethodPost, "/v1/graphs/social/edges", `{"edges":`},
		{http.MethodPut, "/v1/grammars/big", "S -> "},
		{http.MethodPost, "/v1/query", `{"graph":`},
		{http.MethodPost, "/v1/query/batch", `{"graph":`},
		{http.MethodPost, "/v1/subscribe", `{"graph":`},
	} {
		body := io.MultiReader(strings.NewReader(tc.prefix), iotest.ErrReader(&http.MaxBytesError{Limit: maxDocumentBytes}))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, body))
		var resp map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s %s: non-JSON response %q: %v", tc.method, tc.path, rec.Body, err)
		}
		check(tc.method+" "+tc.path+" over the body limit", rec.Code, resp, http.StatusRequestEntityTooLarge, "")
	}
}

// commentLines is an endless edge-list document of comment lines, none
// longer than 1 KiB.
type commentLines struct{}

func (commentLines) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
		switch i % 1024 {
		case 0:
			p[i] = '#'
		case 1023:
			p[i] = '\n'
		}
	}
	return len(p), nil
}

// closedStoreServer serves the social graph and reach grammar from a
// persistent service whose store is closed; with broken set, a plain file
// also stands where the store's directory was.
func closedStoreServer(t *testing.T, broken bool) *httptest.Server {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	s := persistentService(t, dir)
	if err := s.RegisterGraph("social", graph.Word([]string{"knows", "knows"}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", "S -> knows | knows S"); err != nil {
		t.Fatal(err)
	}
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	if broken {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	return srv
}

// TestSameErrorOnEveryRoute: one resolve stands behind /v1/query,
// /v1/subscribe and /v1/query/batch, so the same bad name draws the same
// status and the same error text whichever route carried it. The batch
// route fails the whole call only for its target (graph, grammar, backend);
// what one spec names wrongly is that spec's "error", with the same text.
func TestSameErrorOnEveryRoute(t *testing.T) {
	srv := queryTestServer(t)
	for _, tc := range []struct {
		name      string
		target    string // graph, grammar and backend fields
		rest      string // nonterminal and sources fields
		status    int
		wholeCall bool // the batch route fails as a whole
	}{
		{"unknown graph", `"graph":"nope","grammar":"reach"`, `"nonterminal":"S"`, http.StatusNotFound, true},
		{"unknown grammar", `"graph":"social","grammar":"nope"`, `"nonterminal":"S"`, http.StatusNotFound, true},
		{"unknown backend", `"graph":"social","grammar":"reach","backend":"gpu"`, `"nonterminal":"S"`, http.StatusBadRequest, true},
		{"unknown non-terminal", `"graph":"social","grammar":"reach"`, `"nonterminal":"Nope"`, http.StatusNotFound, false},
		{"unknown node", `"graph":"social","grammar":"reach"`, `"nonterminal":"S","sources":["nobody"]`, http.StatusNotFound, false},
		{"node id out of range", `"graph":"social","grammar":"reach"`, `"nonterminal":"S","sources":["99"]`, http.StatusBadRequest, false},
	} {
		single := "{" + tc.target + "," + tc.rest + "}"
		code, body := httpDo(t, srv, http.MethodPost, "/v1/query", single)
		want, _ := body["error"].(string)
		if code != tc.status || want == "" {
			t.Errorf("%s: /v1/query answered %d %v, want %d with an error", tc.name, code, body, tc.status)
			continue
		}
		if code, body := httpDo(t, srv, http.MethodPost, "/v1/subscribe", single); code != tc.status || body["error"] != want {
			t.Errorf("%s: /v1/subscribe answered %d %v, want %d %q", tc.name, code, body["error"], tc.status, want)
		}
		code, body = httpDo(t, srv, http.MethodPost, "/v1/query/batch", "{"+tc.target+`,"queries":[{`+tc.rest+"}]}")
		if tc.wholeCall {
			if code != tc.status || body["error"] != want {
				t.Errorf("%s: /v1/query/batch answered %d %v, want %d %q", tc.name, code, body["error"], tc.status, want)
			}
			continue
		}
		results, _ := body["results"].([]any)
		if code != http.StatusOK || len(results) != 1 || results[0].(map[string]any)["error"] != want {
			t.Errorf("%s: /v1/query/batch answered %d %v, want 200 with the spec's error %q", tc.name, code, body, want)
		}
	}
}

// TestDebugVarsQueriesCounter asserts cfpqd.queries in /debug/vars moves
// with answered query operations only: every POST /v1/query answer and
// every answered batch spec counts; a 404 and a failed spec do not.
func TestDebugVarsQueriesCounter(t *testing.T) {
	srv := queryTestServer(t)

	queries := func() float64 {
		code, body := httpDo(t, srv, http.MethodGet, "/debug/vars", "")
		if code != http.StatusOK {
			t.Fatalf("debug/vars: %d", code)
		}
		return body["cfpqd"].(map[string]any)["queries"].(float64)
	}
	before := queries()

	// One grammar query and three RPQs — source-restricted,
	// target-restricted, unrestricted: every one is a cached read, the RPQs
	// from their expression's slot. No request plans a closure.
	posts := []string{
		`{"graph":"social","grammar":"reach","nonterminal":"S","output":"count"}`,
		`{"graph":"social","expr":"knows+","output":"count","sources":["alice"]}`,
		`{"graph":"social","expr":"knows+","output":"count","targets":["dave"]}`,
		`{"graph":"social","expr":"knows+","output":"count"}`,
	}
	for _, body := range posts {
		code, resp := httpDo(t, srv, http.MethodPost, "/v1/query", body)
		if code != http.StatusOK {
			t.Fatalf("query %s: %d %v", body, code, resp)
		}
		if st := resp["explain"].(map[string]any)["strategy"]; st != string(cfpq.StrategyCachedRead) {
			t.Errorf("query %s: strategy %v, want cached-read", body, st)
		}
	}
	if code, resp := httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","grammar":"reach","nonterminal":"Nope"}`); code != http.StatusNotFound {
		t.Fatalf("unknown non-terminal: %d %v, want 404", code, resp)
	}
	after := queries()
	if got := after - before; got != 4 {
		t.Errorf("queries moved by %v over four answers and a 404, want 4", got)
	}

	// A batch counts one per answered spec; its failed spec does not.
	batch := `{"graph":"social","grammar":"reach","queries":[` +
		`{"op":"count","nonterminal":"S"},` +
		`{"op":"has","nonterminal":"S","from":"alice","to":"bob"},` +
		`{"op":"relation-from","nonterminal":"S","sources":["bob"]},` +
		`{"op":"count","nonterminal":"Nope"}]}`
	if code, resp := httpDo(t, srv, http.MethodPost, "/v1/query/batch", batch); code != http.StatusOK {
		t.Fatalf("batch: %d %v", code, resp)
	}
	if got := queries() - after; got != 3 {
		t.Errorf("batch of three answered specs and one failed moved queries by %v, want 3", got)
	}
}

// TestServiceDoTargets pins the service-level targets restriction and the
// batch targets extension against the unrestricted relation.
func TestServiceDoTargets(t *testing.T) {
	s := New()
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("a x b\nb x c\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("r", "S -> x | x S"); err != nil {
		t.Fatal(err)
	}
	ans, err := s.Do(t.Context(), QueryRequest{Graph: "g", Grammar: "r", Nonterminal: "S", Targets: []string{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Pairs) != 2 {
		t.Fatalf("target-restricted pairs: %v", ans.Pairs)
	}
	for _, p := range ans.Pairs {
		if p.To != "c" {
			t.Fatalf("pair %v escaped the target restriction", p)
		}
	}

	answers, err := s.QueryBatch(t.Context(), Target{Graph: "g", Grammar: "r"}, []BatchQuerySpec{
		{Op: "count", Nonterminal: "S", Targets: []string{"c"}},
		{Op: "relation", Nonterminal: "S", Targets: []string{"c"}, Sources: []string{"a"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Error != "" || *answers[0].Count != 2 {
		t.Fatalf("batch target count: %+v", answers[0])
	}
	if answers[1].Error != "" || len(answers[1].Pairs) != 1 ||
		answers[1].Pairs[0] != (NamedPair{From: "a", To: "c"}) {
		t.Fatalf("batch pair restriction: %+v", answers[1])
	}

	if _, err := s.Do(t.Context(), QueryRequest{Graph: "g", Grammar: "r", Nonterminal: "S", Output: "paths"}); err == nil {
		t.Fatal("paths without a single pair: expected a validation error")
	} else if !strings.Contains(err.Error(), "invalid request") {
		t.Fatalf("paths validation error: %v", err)
	}
}

// TestHTTPDeclarativeQueryEmptyRestriction pins the declared semantics of
// a present-but-empty restriction: it selects nothing (and does not
// silently mean "everything"), uniformly across the cached wire form
// ("sources": []) and the expression path.
func TestHTTPDeclarativeQueryEmptyRestriction(t *testing.T) {
	srv := queryTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"empty sources", `{"graph":"social","grammar":"reach","nonterminal":"S","output":"count","sources":[]}`},
		{"empty targets", `{"graph":"social","grammar":"reach","nonterminal":"S","output":"count","targets":[]}`},
		{"expr empty sources", `{"graph":"social","expr":"knows+","output":"count","sources":[]}`},
	}
	for _, tc := range cases {
		code, body := httpDo(t, srv, http.MethodPost, "/v1/query", tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %v", tc.name, code, body)
		}
		if got := body["count"].(float64); got != 0 {
			t.Fatalf("%s counted %v pairs, want 0", tc.name, got)
		}
	}

	// The absent field still means unrestricted — the full relation.
	code, body := postQuery(t, srv, "social", "reach", "S", `"output":"count"`)
	if code != http.StatusOK || body["count"].(float64) != 6 {
		t.Fatalf("unrestricted count: %d %v", code, body)
	}
}

// TestHTTPTruncatedFlag asserts the wire answer reports limit truncation
// instead of passing a clipped relation off as complete.
func TestHTTPTruncatedFlag(t *testing.T) {
	srv := queryTestServer(t)
	code, body := httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","grammar":"reach","nonterminal":"S","limit":2}`)
	if code != http.StatusOK {
		t.Fatalf("limited pairs: %d %v", code, body)
	}
	if body["count"].(float64) != 2 || body["truncated"] != true {
		t.Fatalf("limit 2 of 6 pairs: want count 2 truncated true, got %v", body)
	}

	// A limit the relation fits under is not truncation; the flag is
	// omitted from the wire form entirely.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","grammar":"reach","nonterminal":"S","limit":10}`)
	if code != http.StatusOK || body["count"].(float64) != 6 {
		t.Fatalf("unclipped pairs: %d %v", code, body)
	}
	if _, present := body["truncated"]; present {
		t.Fatalf("unclipped answer carries truncated: %v", body)
	}

	// The expression path reports it too.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","expr":"knows+","limit":1}`)
	if code != http.StatusOK || body["truncated"] != true {
		t.Fatalf("expr truncation: %d %v", code, body)
	}

	// Paths output reports truncation on the wire too: a diamond graph has
	// exactly two witness paths a→d, so limit 1 clips and limit 2 does not.
	if code, body := httpDo(t, srv, http.MethodPut, "/v1/graphs/diamond?format=edgelist",
		"a knows b\nb knows d\na knows c\nc knows d\n"); code != http.StatusOK {
		t.Fatalf("PUT diamond: %d %v", code, body)
	}
	code, body = httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"diamond","grammar":"reach","nonterminal":"S","output":"paths","sources":["a"],"targets":["d"],"limit":1}`)
	if code != http.StatusOK || body["count"].(float64) != 1 || body["truncated"] != true {
		t.Fatalf("limited paths: %d %v", code, body)
	}
	code, body = httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"diamond","grammar":"reach","nonterminal":"S","output":"paths","sources":["a"],"targets":["d"],"limit":2}`)
	if code != http.StatusOK || body["count"].(float64) != 2 {
		t.Fatalf("unclipped paths: %d %v", code, body)
	}
	if _, present := body["truncated"]; present {
		t.Fatalf("unclipped paths answer carries truncated: %v", body)
	}
}

// TestHTTPMemoryBudget asserts a closure rejected by the service memory
// budget answers 413 with the error envelope and ticks the
// budget_rejections counter in /debug/vars.
func TestHTTPMemoryBudget(t *testing.T) {
	svc := New()
	svc.SetMemoryBudget(64) // far below even a 4-node index
	srv := httptest.NewServer(Handler(svc))
	t.Cleanup(srv.Close)
	if code, body := httpDo(t, srv, http.MethodPut, "/v1/graphs/social?format=edgelist",
		"alice knows bob\nbob knows carol\ncarol knows dave\n"); code != http.StatusOK {
		t.Fatalf("PUT graph: %d %v", code, body)
	}
	if code, body := httpDo(t, srv, http.MethodPut, "/v1/grammars/reach", "S -> knows | knows S"); code != http.StatusOK {
		t.Fatalf("PUT grammar: %d %v", code, body)
	}

	code, body := httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","grammar":"reach","nonterminal":"S"}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("budgeted query: status %d, want 413 (%v)", code, body)
	}
	if msg, ok := body["error"].(string); !ok || !strings.Contains(msg, "memory budget") {
		t.Fatalf("budgeted query error envelope: %v", body)
	}

	// The expression path is budgeted too.
	if code, body := httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","expr":"knows+"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("budgeted expr: status %d, want 413 (%v)", code, body)
	}

	code, body = httpDo(t, srv, http.MethodGet, "/debug/vars", "")
	if code != http.StatusOK {
		t.Fatalf("debug/vars: %d", code)
	}
	if got := body["cfpqd"].(map[string]any)["budget_rejections"].(float64); got != 2 {
		t.Fatalf("budget_rejections = %v, want 2", got)
	}

	// Lifting the budget lets the same query through (rebuild on next use:
	// the failed build cached nothing).
	svc.SetMemoryBudget(0)
	if code, body := httpDo(t, srv, http.MethodPost, "/v1/query",
		`{"graph":"social","grammar":"reach","nonterminal":"S"}`); code != http.StatusOK {
		t.Fatalf("unbudgeted query after lift: %d %v", code, body)
	}
}

// TestHTTPMemoryBudgetOnPatch asserts the budget governs incremental
// patches as it does builds: a batch whose propagation would outgrow it
// drops the cached handle (reported invalidated, not patched), ticks
// budget_rejections, and the next query — a cold rebuild of the now larger
// closure — answers 413.
func TestHTTPMemoryBudgetOnPatch(t *testing.T) {
	svc := New()
	srv := httptest.NewServer(Handler(svc))
	t.Cleanup(srv.Close)
	// Two five-node chains; joining them more than doubles the closure.
	const chains = "a0 knows a1\na1 knows a2\na2 knows a3\na3 knows a4\n" +
		"b0 knows b1\nb1 knows b2\nb2 knows b3\nb3 knows b4\n"
	putGraph := func() {
		t.Helper()
		if code, body := httpDo(t, srv, http.MethodPut, "/v1/graphs/social?format=edgelist", chains); code != http.StatusOK {
			t.Fatalf("PUT graph: %d %v", code, body)
		}
	}
	putGraph()
	if code, body := httpDo(t, srv, http.MethodPut, "/v1/grammars/reach", "S -> knows | knows S"); code != http.StatusOK {
		t.Fatalf("PUT grammar: %d %v", code, body)
	}
	const query = `{"graph":"social","grammar":"reach","nonterminal":"S","output":"count"}`
	rejections := func() float64 {
		t.Helper()
		_, body := httpDo(t, srv, http.MethodGet, "/debug/vars", "")
		return body["cfpqd"].(map[string]any)["budget_rejections"].(float64)
	}

	// Learn the build's peak unbudgeted, then make it the budget and
	// rebuild under it (re-registering the graph drops the index; an index
	// keeps the budget it was built under).
	if code, body := httpDo(t, srv, http.MethodPost, "/v1/query", query); code != http.StatusOK {
		t.Fatalf("unbudgeted query: %d %v", code, body)
	}
	_, body := httpDo(t, srv, http.MethodGet, "/v1/stats", "")
	peak := body["indexes"].([]any)[0].(map[string]any)["build"].(map[string]any)["peak_bytes"].(float64)
	svc.SetMemoryBudget(int64(peak))
	putGraph()
	if code, body := httpDo(t, srv, http.MethodPost, "/v1/query", query); code != http.StatusOK {
		t.Fatalf("query under a budget equal to the build's peak: %d %v", code, body)
	}

	code, body := httpDo(t, srv, http.MethodPost, "/v1/graphs/social/edges",
		`{"edges":[{"from":"a4","label":"knows","to":"b0"}]}`)
	if code != http.StatusOK || body["patched"].(float64) != 0 || body["invalidated"].(float64) != 1 {
		t.Fatalf("over-budget patch: %d %v, want the handle invalidated", code, body)
	}
	if got := rejections(); got != 1 {
		t.Fatalf("budget_rejections after the patch = %v, want 1", got)
	}
	if _, body := httpDo(t, srv, http.MethodGet, "/v1/stats", ""); len(body["indexes"].([]any)) != 0 {
		t.Fatalf("over-budget patch left the index cached: %v", body)
	}
	if code, body := httpDo(t, srv, http.MethodPost, "/v1/query", query); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("query after the over-budget patch: %d %v, want 413", code, body)
	}
	if got := rejections(); got != 2 {
		t.Fatalf("budget_rejections after the rebuild = %v, want 2", got)
	}
}

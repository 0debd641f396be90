package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func httpDo(t *testing.T, srv *httptest.Server, method, path, body string) (int, map[string]any) {
	t.Helper()
	return httpSend(t, srv, method, path, strings.NewReader(body))
}

// httpSend is httpDo with the body streamed from a reader.
func httpSend(t *testing.T, srv *httptest.Server, method, path string, body io.Reader) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q: %v", method, path, raw, err)
	}
	return resp.StatusCode, out
}

// postQuery sends one declarative request to POST /v1/query; fields is the
// request body after the graph/grammar/nonterminal that every caller sets.
func postQuery(t *testing.T, srv *httptest.Server, graph, grammar, nonterminal, fields string) (int, map[string]any) {
	t.Helper()
	body := `{"graph":"` + graph + `","grammar":"` + grammar + `","nonterminal":"` + nonterminal + `"`
	if fields != "" {
		body += "," + fields
	}
	return httpDo(t, srv, http.MethodPost, "/v1/query", body+"}")
}

func TestHTTPEndToEnd(t *testing.T) {
	srv := httptest.NewServer(Handler(New()))
	defer srv.Close()

	// Load a graph in the edge-list format and a grammar.
	code, body := httpDo(t, srv, http.MethodPut, "/v1/graphs/social?format=edgelist",
		"alice knows bob\nbob knows carol\n")
	if code != http.StatusOK || body["nodes"].(float64) != 3 {
		t.Fatalf("PUT graph: %d %v", code, body)
	}
	code, body = httpDo(t, srv, http.MethodPut, "/v1/grammars/reach", "S -> knows | knows S")
	if code != http.StatusOK {
		t.Fatalf("PUT grammar: %d %v", code, body)
	}
	if nts := body["nonterminals"].([]any); len(nts) != 1 || nts[0] != "S" {
		t.Fatalf("PUT grammar nonterminals: %v", body)
	}

	// Listings.
	code, body = httpDo(t, srv, http.MethodGet, "/v1/graphs", "")
	if code != http.StatusOK || len(body["graphs"].([]any)) != 1 {
		t.Fatalf("GET graphs: %d %v", code, body)
	}
	listed := body["graphs"].([]any)[0]
	code, body = httpDo(t, srv, http.MethodGet, "/v1/graphs/social", "")
	if code != http.StatusOK || body["name"] != "social" || !reflect.DeepEqual(listed, any(body)) {
		t.Fatalf("GET graphs/social: %d %v, want the listing's entry %v", code, body, listed)
	}
	code, body = httpDo(t, srv, http.MethodGet, "/v1/grammars", "")
	if code != http.StatusOK || len(body["grammars"].([]any)) != 1 {
		t.Fatalf("GET grammars: %d %v", code, body)
	}

	// Query ops.
	code, body = postQuery(t, srv, "social", "reach", "S", `"output":"count"`)
	if code != http.StatusOK || body["count"].(float64) != 3 {
		t.Fatalf("count: %d %v", code, body)
	}
	code, body = postQuery(t, srv, "social", "reach", "S", `"output":"exists","sources":["alice"],"targets":["carol"]`)
	if code != http.StatusOK || body["exists"] != true {
		t.Fatalf("exists: %d %v", code, body)
	}
	code, body = postQuery(t, srv, "social", "reach", "S", "")
	if code != http.StatusOK || len(body["pairs"].([]any)) != 3 {
		t.Fatalf("relation: %d %v", code, body)
	}
	first := body["pairs"].([]any)[0].(map[string]any)
	if first["from"] != "alice" || first["to"] != "bob" {
		t.Fatalf("relation pair names: %v", first)
	}
	code, body = httpDo(t, srv, http.MethodGet, "/v1/stats", "")
	if code != http.StatusOK || body["indexes"].([]any)[0].(map[string]any)["counts"].(map[string]any)["S"].(float64) != 3 {
		t.Fatalf("stats counts: %d %v", code, body)
	}

	// Mutation: dora enters the graph — a new node is patched like any edge.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/graphs/social/edges",
		`{"edges":[{"from":"carol","label":"knows","to":"dora"}]}`)
	if code != http.StatusOK || body["added"].(float64) != 1 || body["new_nodes"].(float64) != 1 ||
		body["patched"].(float64) != 1 || body["invalidated"].(float64) != 0 {
		t.Fatalf("POST edges: %d %v", code, body)
	}
	code, body = postQuery(t, srv, "social", "reach", "S", `"output":"exists","sources":["alice"],"targets":["dora"]`)
	if code != http.StatusOK || body["exists"] != true {
		t.Fatalf("exists after update: %d %v", code, body)
	}

	// Mutation between existing nodes: the index is patched in place.
	code, body = httpDo(t, srv, http.MethodPost, "/v1/graphs/social/edges",
		`{"edges":[{"from":"dora","label":"knows","to":"alice"}]}`)
	if code != http.StatusOK || body["patched"].(float64) != 1 {
		t.Fatalf("POST edges (patch): %d %v", code, body)
	}

	// Stats reflect the one build and the two incremental patches.
	code, body = httpDo(t, srv, http.MethodGet, "/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, body)
	}
	indexes := body["indexes"].([]any)
	if len(indexes) != 1 {
		t.Fatalf("stats: want 1 index, got %v", body)
	}
	ix := indexes[0].(map[string]any)
	if ix["graph"] != "social" || ix["grammar"] != "reach" || ix["backend"] != DefaultBackend {
		t.Fatalf("stats index key: %v", ix)
	}
	if ix["build"].(map[string]any)["products"].(float64) <= 0 {
		t.Fatalf("stats build products: %v", ix)
	}
	if ix["updates"].(float64) != 2 || ix["nodes"].(float64) != 4 {
		t.Fatalf("stats updates: %v", ix)
	}
	if ix["queries"].(float64) <= 0 {
		t.Fatalf("stats queries: %v", ix)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(Handler(New()))
	defer srv.Close()
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/query", `{"graph":"g","grammar":"r","nonterminal":"S","output":"count"}`, http.StatusNotFound},
		{http.MethodPost, "/v1/query", `{"grammar":"r","nonterminal":"S"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/query", `{"graph":"g","grammar":"r"}`, http.StatusBadRequest},
		{http.MethodGet, "/v1/graphs/missing", "", http.StatusNotFound},
		{http.MethodPut, "/v1/graphs/g?format=weird", "x a y", http.StatusBadRequest},
		{http.MethodPut, "/v1/grammars/g", "no arrow here", http.StatusBadRequest},
		{http.MethodPost, "/v1/graphs/g/edges", "{}", http.StatusBadRequest},
		{http.MethodPost, "/v1/graphs/g/edges", "not json", http.StatusBadRequest},
	} {
		code, body := httpDo(t, srv, tc.method, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s %s: got %d (%v), want %d", tc.method, tc.path, code, body, tc.want)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%s %s: error body missing: %v", tc.method, tc.path, body)
		}
	}

	// The legacy GET form of the query route is gone: the path exists, the
	// method does not.
	resp, err := srv.Client().Get(srv.URL + "/v1/query?graph=g&grammar=r&nonterminal=S")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: got %d, want 405", resp.StatusCode)
	}
	// So is the store-statistics route: the snapshot's answer and
	// /debug/vars serve those numbers.
	if resp, err = srv.Client().Get(srv.URL + "/v1/store/stats"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/store/stats: got %d, want 404", resp.StatusCode)
	}

	// Unknown output, non-terminal and node on a real graph/grammar.
	s := New()
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("x a y\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("r", "S -> a"); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(s))
	defer srv2.Close()
	code, _ := postQuery(t, srv2, "g", "r", "S", `"output":"zap"`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown output: got %d", code)
	}
	code, _ = postQuery(t, srv2, "g", "r", "Zap", `"output":"count"`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown non-terminal: got %d", code)
	}
	code, body := postQuery(t, srv2, "g", "r", "S", `"output":"exists","sources":["x"],"targets":["nope"]`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown node: got %d %v", code, body)
	}
}

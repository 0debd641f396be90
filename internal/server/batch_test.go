package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// socialService registers the small named social graph the query-operation
// tests use, with a Knows -> knows Knows | knows grammar.
func socialService(t *testing.T) *Service {
	t.Helper()
	s := New()
	edges := `
alice	knows	bob
bob	knows	carol
carol	knows	dora
`
	if _, err := s.LoadGraph("social", "edgelist", strings.NewReader(edges)); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", "Knows -> knows Knows | knows"); err != nil {
		t.Fatal(err)
	}
	return s
}

func target() Target { return Target{Graph: "social", Grammar: "reach"} }

func TestServiceQueryBatch(t *testing.T) {
	s := socialService(t)
	answers, err := s.QueryBatch(ctx, target(), []BatchQuerySpec{
		{Op: "has", Nonterminal: "Knows", From: "alice", To: "dora"},
		{Op: "count", Nonterminal: "Knows"},
		{Nonterminal: "Knows"}, // default op: relation
		{Op: "count-from", Nonterminal: "Knows", Sources: []string{"alice"}},
		{Op: "relation-from", Nonterminal: "Knows", Sources: []string{"bob"}},
		{Op: "has", Nonterminal: "Knows", From: "nobody", To: "dora"}, // per-query error
		{Op: "count", Nonterminal: "Nope"},                            // per-query error
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 7 {
		t.Fatalf("got %d answers, want 7", len(answers))
	}
	if answers[0].Has == nil || !*answers[0].Has {
		t.Errorf("has(alice,dora) = %+v, want true", answers[0])
	}
	// Transitive closure of the 4-node chain: 3+2+1 = 6 pairs.
	if answers[1].Count == nil || *answers[1].Count != 6 {
		t.Errorf("count = %+v, want 6", answers[1])
	}
	if answers[2].Count == nil || *answers[2].Count != 6 || len(answers[2].Pairs) != 6 {
		t.Errorf("relation = %+v, want 6 pairs", answers[2])
	}
	if answers[3].Count == nil || *answers[3].Count != 3 {
		t.Errorf("count-from alice = %+v, want 3", answers[3])
	}
	wantBob := []NamedPair{{From: "bob", To: "carol"}, {From: "bob", To: "dora"}}
	if !reflect.DeepEqual(answers[4].Pairs, wantBob) {
		t.Errorf("relation-from bob = %v, want %v", answers[4].Pairs, wantBob)
	}
	if answers[5].Error == "" {
		t.Errorf("unknown node: expected per-query error, got %+v", answers[5])
	}
	if answers[6].Error == "" {
		t.Errorf("unknown non-terminal: expected per-query error, got %+v", answers[6])
	}
}

func TestServiceQueryBatchRegistryErrors(t *testing.T) {
	s := socialService(t)
	if _, err := s.QueryBatch(ctx, Target{Graph: "nope", Grammar: "reach"}, []BatchQuerySpec{{Nonterminal: "Knows"}}); err == nil {
		t.Error("unknown graph: expected error")
	}
	if _, err := s.QueryBatch(ctx, Target{Graph: "social", Grammar: "nope"}, []BatchQuerySpec{{Nonterminal: "Knows"}}); err == nil {
		t.Error("unknown grammar: expected error")
	}
	if _, err := s.QueryBatch(ctx, Target{Graph: "social", Grammar: "reach", Backend: "quantum"}, []BatchQuerySpec{{Nonterminal: "Knows"}}); err == nil {
		t.Error("unknown backend: expected error")
	}
}

func TestServiceRelationFromAndCountFrom(t *testing.T) {
	s := socialService(t)
	pairs, err := relation(ctx, s, target(), "Knows", "carol")
	if err != nil {
		t.Fatal(err)
	}
	want := []NamedPair{{From: "carol", To: "dora"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("RelationFrom carol = %v, want %v", pairs, want)
	}
	n, err := count(ctx, s, target(), "Knows", "alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("CountFrom alice,bob = %d, want 5", n)
	}
	if _, err := relation(ctx, s, target(), "Knows", "nobody"); err == nil {
		t.Error("unknown source: expected error")
	}
}

func TestHTTPQueryBatchAndSources(t *testing.T) {
	s := socialService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	// Batched POST.
	body, _ := json.Marshal(map[string]any{
		"graph":   "social",
		"grammar": "reach",
		"queries": []BatchQuerySpec{
			{Op: "count", Nonterminal: "Knows"},
			{Op: "relation-from", Nonterminal: "Knows", Sources: []string{"carol"}},
			{Op: "count", Nonterminal: "Nope"},
		},
	})
	resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Results []BatchAnswer `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Count == nil || *out.Results[0].Count != 6 {
		t.Errorf("batch count = %+v, want 6", out.Results[0])
	}
	if len(out.Results[1].Pairs) != 1 || out.Results[1].Pairs[0].To != "dora" {
		t.Errorf("batch relation-from = %+v", out.Results[1])
	}
	if out.Results[2].Error == "" {
		t.Errorf("batch bad query: expected per-query error, got %+v", out.Results[2])
	}

	// A single query with a sources restriction; a present-but-empty
	// restriction is an empty frontier (zero pairs), not a silent
	// fall-through to the unrestricted answer.
	for sources, want := range map[string]float64{`["alice","bob"]`: 5, `[]`: 0} {
		code, ans := postQuery(t, srv, "social", "reach", "Knows", `"output":"count","sources":`+sources)
		if code != http.StatusOK || ans["count"] != want {
			t.Errorf("sources %s: status %d answer %v, want 200 with count %v", sources, code, ans, want)
		}
	}

	// Malformed batches.
	for _, bad := range []string{
		`{"graph":"social","grammar":"reach","queries":[]}`,
		`{"grammar":"reach","queries":[{"nonterminal":"Knows"}]}`,
		`not json`,
	} {
		resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad batch %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

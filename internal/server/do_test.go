package server

import (
	"context"

	"cfpq"
)

// Test-side sugar over Service.Do, the service's one query entry point:
// each helper fills the target into a QueryRequest and unwraps the answer.

func ask(ctx context.Context, s *Service, t Target, req QueryRequest) (QueryAnswer, error) {
	req.Graph, req.Grammar, req.Backend = t.Graph, t.Grammar, t.Backend
	return s.Do(ctx, req)
}

// has reports whether (from, to) is in R_nt on the target.
func has(ctx context.Context, s *Service, t Target, nt, from, to string) (bool, error) {
	ans, err := ask(ctx, s, t, QueryRequest{
		Nonterminal: nt, Output: string(cfpq.OutputExists),
		Sources: []string{from}, Targets: []string{to},
	})
	if err != nil {
		return false, err
	}
	return *ans.Exists, nil
}

// relation returns R_nt on the target, restricted to pairs leaving the
// given sources when any are named.
func relation(ctx context.Context, s *Service, t Target, nt string, sources ...string) ([]NamedPair, error) {
	ans, err := ask(ctx, s, t, QueryRequest{Nonterminal: nt, Sources: sources})
	return ans.Pairs, err
}

// count is relation's size.
func count(ctx context.Context, s *Service, t Target, nt string, sources ...string) (int, error) {
	ans, err := ask(ctx, s, t, QueryRequest{Nonterminal: nt, Sources: sources, Output: string(cfpq.OutputCount)})
	if err != nil {
		return 0, err
	}
	return *ans.Count, nil
}

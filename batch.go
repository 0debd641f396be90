package cfpq

import "context"

// BatchResult is the answer to one Request of a batch: the Result when the
// request was answered, or the per-request error — one malformed request
// does not fail its batch.
type BatchResult struct {
	// Result is the request's answer; nil when Err is set.
	Result *Result
	// Err reports a per-request failure (invalid request, unknown
	// non-terminal, or the batch context firing).
	Err error
}

// QueryBatch answers every Request of the batch, in order and on the
// caller's goroutine, from ONE pinned version of the handle's cached index.
// All answers come from the same index state: an AddEdges racing the batch
// is either fully visible to every answer or to none, which per-request
// pinning cannot guarantee, and it is not held up by the batch either.
// Each request is planned like Prepared.Do plans it (the cached-read
// strategy, with the same request restrictions), and every pairs Result
// walks that one version, so answers stay consistent however late they
// are consumed.
//
// The context is checked between requests; once it fires, the remaining
// results carry ctx.Err() as their Err.
func (p *Prepared) QueryBatch(ctx context.Context, reqs []Request) []BatchResult {
	if len(reqs) == 0 {
		return nil
	}
	v := p.pin()
	p.queries.Add(int64(len(reqs)))
	results := make([]BatchResult, len(reqs))
	for i, req := range reqs {
		err := ctx.Err()
		if err == nil {
			err = p.checkRequest(req)
		}
		if err != nil {
			results[i] = BatchResult{Err: err}
			continue
		}
		res, err := p.answer(ctx, v, req)
		results[i] = BatchResult{Result: res, Err: err}
	}
	return results
}

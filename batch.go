package cfpq

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

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

// batchWorkers sizes the worker pool fanning a batch out: one worker per
// processor, never more than there are requests.
func batchWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// QueryBatch answers every Request of the batch from ONE pinned version of
// the handle's cached index, fanning the work out over a shared pool of one
// worker per processor with no lock held. All answers come from the same
// index state: an AddEdges racing the batch is either fully visible to
// every answer or to none, which per-request pinning cannot guarantee, and
// it is not held up by the batch either.
// Each request is planned like Prepared.Do plans it (the cached-read
// strategy, with the same request restrictions), and every Result streams
// a snapshot materialised during the batch, so answers stay consistent
// however late they are consumed.
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
	answer := func(i int) {
		if err := ctx.Err(); err != nil {
			results[i] = BatchResult{Err: err}
			return
		}
		if err := p.checkRequest(reqs[i]); err != nil {
			results[i] = BatchResult{Err: err}
			return
		}
		res, err := p.answer(ctx, v, reqs[i])
		results[i] = BatchResult{Result: res, Err: err}
	}
	workers := batchWorkers(len(reqs))
	if workers == 1 {
		for i := range reqs {
			answer(i)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				answer(i)
			}
		}()
	}
	wg.Wait()
	return results
}

package cfpq

import (
	"context"
	"fmt"
	"iter"
	"sync/atomic"

	"cfpq/internal/core"
)

// Delta is the per-nonterminal list of newly derived pairs of one index
// update — what AddEdges exposes on UpdateInfo and what subscriptions are
// fed from. See Prepared.Subscribe.
type Delta = core.Delta

// subscriptionBuffer is the bounded per-subscriber channel capacity. A
// consumer that falls more than this many update batches behind has its
// oldest pending batch dropped and is handed a Resync marker on the next
// delivery (see PairBatch.Resync) — publishing never blocks AddEdges.
const subscriptionBuffer = 64

// subscriptionHistory is how many past update batches the hub retains for
// Last-Event-ID style resume (SubscribeFrom). A resume gap wider than the
// window yields a single Resync marker instead of a replay.
const subscriptionHistory = 64

// PairBatch is one subscription delivery: the newly derived pairs of one
// index update (after restriction filtering), stamped with the update's
// sequence number.
//
// Resync set means continuity was lost before this batch: either the
// consumer was too slow and a previous batch was dropped, or a resume
// (SubscribeFrom) asked for a sequence number outside the retained window.
// The pairs of this batch are still exactly the (filtered) delta of update
// Seq, but earlier pairs may have been missed — re-issue the full Request
// to resynchronise, then continue consuming.
type PairBatch struct {
	// Seq is the 1-based sequence number of the index update that derived
	// these pairs; it increases by one per delta-producing AddEdges.
	Seq uint64 `json:"seq"`
	// Pairs are the newly derived pairs, row-major, restriction-filtered.
	// May be empty on a pure Resync marker.
	Pairs []Pair `json:"pairs"`
	// Resync reports lost continuity; see the type comment.
	Resync bool `json:"resync,omitempty"`
}

// Subscription is a standing pairs Request against a Prepared handle: each
// AddEdges that derives new pairs pushes a PairBatch of the pairs the
// incremental closure derived — never a diff of full results.
// Obtain one with Prepared.Subscribe; consume Updates (or Batches); Close
// when done.
type Subscription struct {
	p       *Prepared
	id      int64
	nt      string
	src     map[int]bool // nil = unrestricted
	tgt     map[int]bool
	ch      chan PairBatch
	stop    func() bool // cancels the ctx teardown hook
	dropped atomic.Int64

	// Guarded by p.mu.
	closed        bool
	pendingResync bool
}

// Updates is the delivery channel. It is closed when the subscription ends
// — Close, ctx cancellation, or the handle shutting down (Prepared.Close);
// a consumer that sees it close without having cancelled should treat the
// handle as gone, re-resolve it and resubscribe.
func (s *Subscription) Updates() <-chan PairBatch { return s.ch }

// Batches adapts the subscription to a single-use iterator: it yields
// until the subscription ends, and breaking out of the loop closes it.
func (s *Subscription) Batches() iter.Seq[PairBatch] {
	return func(yield func(PairBatch) bool) {
		for b := range s.ch {
			if !yield(b) {
				s.Close()
				return
			}
		}
	}
}

// Dropped counts update batches discarded because the consumer's buffer
// was full (each is also surfaced in-band via PairBatch.Resync).
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Close ends the subscription and closes Updates. Idempotent; also invoked
// automatically when the Subscribe ctx is cancelled.
func (s *Subscription) Close() {
	s.p.mu.Lock()
	s.closeLocked()
	s.p.mu.Unlock()
	if s.stop != nil {
		s.stop()
	}
}

// closeLocked tears the subscription down; callers hold p.mu.
func (s *Subscription) closeLocked() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.p.hub.subs, s.id)
	close(s.ch)
}

// histEntry is one retained update: its sequence number and the full
// (unfiltered) newly-derived pairs per nonterminal.
type histEntry struct {
	seq   uint64
	pairs map[string][]Pair
}

// subHub fans index-update deltas out to subscribers: a Prepared's hub,
// guarded by its mu. publish runs beside the version store under that
// mutex, and subscribe under it too, so batch order equals publication
// order and a query issued after Subscribe returns sees every version
// whose delta the subscription missed. The hub starts counting at the
// first subscriber (subs non-nil) and stops at Close.
type subHub struct {
	closed bool
	seq    uint64
	nextID int64
	subs   map[int64]*Subscription
	hist   []histEntry // oldest first, at most subscriptionHistory entries
}

// publish assigns the next sequence number to a non-empty update delta,
// records it in the resume window, and offers the filtered batch to every
// subscriber. Sends never block: a full buffer drops the batch for that
// subscriber and marks it for an in-band Resync on its next delivery.
func (h *subHub) publish(pairs map[string][]Pair) {
	if h.closed || h.subs == nil {
		return
	}
	h.seq++
	h.hist = append(h.hist, histEntry{seq: h.seq, pairs: pairs})
	if len(h.hist) > subscriptionHistory {
		h.hist = h.hist[1:]
	}
	for _, s := range h.subs {
		s.offerLocked(PairBatch{Seq: h.seq, Pairs: s.filter(pairs)})
	}
}

// offerLocked delivers one batch to a subscriber without blocking; callers
// hold p.mu. Empty batches are skipped unless a resync is owed.
func (s *Subscription) offerLocked(b PairBatch) {
	if len(b.Pairs) == 0 && !s.pendingResync {
		return
	}
	b.Resync = b.Resync || s.pendingResync
	select {
	case s.ch <- b:
		s.pendingResync = false
	default:
		// Slow consumer: drop, and surface the gap in-band on the next
		// batch that does fit.
		s.dropped.Add(1)
		s.pendingResync = true
	}
}

// filter applies the subscription's restriction to one update's pairs.
func (s *Subscription) filter(pairs map[string][]Pair) []Pair {
	all := pairs[s.nt]
	if s.src == nil && s.tgt == nil {
		return all
	}
	var out []Pair
	for _, p := range all {
		if (s.src == nil || s.src[p.I]) && (s.tgt == nil || s.tgt[p.J]) {
			out = append(out, p)
		}
	}
	return out
}

// closeAll ends every subscription and rejects future ones.
func (h *subHub) closeAll() {
	h.closed = true
	for _, s := range h.subs {
		s.closeLocked()
	}
}

// memberSet builds a membership set; nil input stays nil (unrestricted).
func memberSet(nodes []int) map[int]bool {
	if nodes == nil {
		return nil
	}
	set := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		set[v] = true
	}
	return set
}

// subscribe registers a subscriber. With resume set, retained updates with
// seq > afterSeq are pre-queued (restriction-filtered); a gap wider than
// the retained window pre-queues a single Resync marker instead.
func (p *Prepared) subscribe(ctx context.Context, req Request, resume bool, afterSeq uint64) (*Subscription, error) {
	if err := p.checkSubscribe(req); err != nil {
		return nil, err
	}
	src, tgt := memberSet(req.Sources), memberSet(req.Targets)
	p.mu.Lock()
	defer p.mu.Unlock()
	h := &p.hub
	if h.closed {
		return nil, fmt.Errorf("cfpq: subscribe on a closed Prepared handle")
	}
	if h.subs == nil {
		h.subs = make(map[int64]*Subscription)
	}
	h.nextID++
	s := &Subscription{
		p:   p,
		id:  h.nextID,
		nt:  req.Nonterminal,
		src: src,
		tgt: tgt,
		ch:  make(chan PairBatch, subscriptionBuffer),
	}
	if resume && afterSeq != h.seq {
		if afterSeq > h.seq || len(h.hist) == 0 || h.hist[0].seq > afterSeq+1 {
			// Outside the window (or from another handle generation):
			// nothing trustworthy to replay.
			s.pendingResync = true
			s.offerLocked(PairBatch{Seq: h.seq})
		} else {
			for _, e := range h.hist {
				if e.seq > afterSeq {
					s.offerLocked(PairBatch{Seq: e.seq, Pairs: s.filter(e.pairs)})
				}
			}
		}
	}
	h.subs[s.id] = s
	s.stop = context.AfterFunc(ctx, s.Close)
	return s, nil
}

// Subscribe registers a standing Request and returns a Subscription that
// receives the newly derived pairs of every subsequently published version,
// computed from the incremental closure's per-update delta — never by
// diffing full results (an abandoned update pushes nothing; the update
// that absorbs its edges pushes their pairs). Deliveries start strictly after the pairs
// visible to a query issued now; to seed state, run the same Request
// through Do first and then apply batches on top.
//
// The request must ask for pairs (the zero Output), carry no Limit and no
// call-site bindings; Sources/Targets restrict the streamed pairs exactly
// as they would a query. Slow consumers never block writers: each
// subscription buffers a bounded number of batches and a consumer that
// falls behind has batches dropped and learns of the gap in-band
// (PairBatch.Resync — drop-with-resync, not backpressure). The
// subscription ends on Close, on ctx cancellation, and when the handle
// itself is closed (Prepared.Close), all of which close Updates.
func (p *Prepared) Subscribe(ctx context.Context, req Request) (*Subscription, error) {
	return p.subscribe(ctx, req, false, 0)
}

// SubscribeFrom is Subscribe resuming after a previously seen sequence
// number: retained updates with Seq > afterSeq are delivered first
// (restriction-filtered), then the stream continues live. The hub retains
// a bounded window of past updates; asking for a sequence number outside
// it yields a single Resync marker instead of a replay — re-issue the full
// Request, then consume. This is what serves SSE Last-Event-ID reconnects.
func (p *Prepared) SubscribeFrom(ctx context.Context, req Request, afterSeq uint64) (*Subscription, error) {
	return p.subscribe(ctx, req, true, afterSeq)
}

// checkSubscribe validates a standing request: everything a cached read
// rejects, plus subscription-specific shape (pairs output, no bounds).
func (p *Prepared) checkSubscribe(req Request) error {
	if err := p.checkRequest(req); err != nil {
		return err
	}
	if req.normOutput() != OutputPairs {
		return reqErr("output", "subscriptions stream newly derived pairs; only pairs output is supported")
	}
	if req.Limit != 0 {
		return reqErr("limit", "subscriptions stream every newly derived pair; drop the limit")
	}
	if req.MaxPathLength != 0 {
		return reqErr("max_path_length", "subscriptions stream pairs, not paths")
	}
	if _, ok := p.cnf.Index(req.Nonterminal); !ok {
		return fmt.Errorf("cfpq: unknown non-terminal %q", req.Nonterminal)
	}
	return nil
}

// Close shuts the handle's live-query side down: every subscription ends
// (its Updates channel closes) and future Subscribe calls fail. Queries
// and updates on the handle keep working; Close is for owners — cfpqd's
// registry calls it when a cached entry is invalidated — so subscribers
// reliably learn their handle is gone instead of waiting on a stream
// nothing will ever publish to again. Idempotent.
func (p *Prepared) Close() {
	p.mu.Lock()
	p.hub.closeAll()
	p.mu.Unlock()
}

// deltaPairs puts an update's delta in the shape the hub retains and
// filters: the Delta's own read-only pair lists, per non-terminal.
func deltaPairs(d *Delta) map[string][]Pair {
	pairs := make(map[string][]Pair)
	for _, nt := range d.Nonterminals() {
		pairs[nt] = d.Pairs(nt)
	}
	return pairs
}

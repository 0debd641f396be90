package cfpq

import (
	"context"
	"fmt"
	"iter"
	"math"

	"cfpq/internal/core"
)

// Delta is the per-nonterminal list of newly derived pairs of one index
// update — what AddEdges exposes on UpdateInfo and what subscriptions
// read. See Prepared.Subscribe.
type Delta = core.Delta

// subscriptionWindow is how many published deltas a handle retains (see
// PairBatch.Resync).
const subscriptionWindow = 64

// PairBatch is one subscription delivery: the newly derived pairs of one
// index update (after restriction filtering), stamped with the update's
// sequence number.
//
// Resync set marks lost continuity: the handle's window of retained
// updates passed the reader's position — it read too slowly, or resumed
// (SubscribeFrom) from outside the window. The marker carries no pairs and
// stands at the head, where reading continues. Re-issue the full Request
// to resynchronise, then keep reading.
type PairBatch struct {
	// Seq is the 1-based sequence number of the index update that derived
	// these pairs; it increases by one per delta-producing AddEdges.
	Seq uint64 `json:"seq"`
	// Pairs are the newly derived pairs, row-major, restriction-filtered.
	// Empty on a Resync marker.
	Pairs []Pair `json:"pairs"`
	// Resync reports lost continuity; see the type comment.
	Resync bool `json:"resync,omitempty"`
}

// Subscription is a standing pairs Request against a Prepared handle: a
// position in the handle's published deltas and a restriction. Obtain one
// with Prepared.Subscribe; read it with Batches, or with Next and Updates;
// Close when done.
type Subscription struct {
	p        *Prepared
	nt       string
	src, tgt []int       // sorted and distinct; nil = unrestricted
	stop     func() bool // cancels the ctx teardown hook

	// Guarded by p.mu.
	pos    uint64 // the last sequence number read
	closed bool
	end    uint64 // the hub's head when the subscription closed
}

// closedWake is the Updates channel of a subscription with something to read.
var closedWake = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Updates returns a channel that is closed once the subscription has an
// update past its position to read — one Next may still filter to
// nothing — or has ended. Call it again after each wait: a channel it
// returned serves one wait.
func (s *Subscription) Updates() <-chan struct{} {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	h := &s.p.hub
	if s.closed || h.closed || s.pos != h.seq {
		return closedWake
	}
	if h.wake == nil {
		h.wake = make(chan struct{})
	}
	return h.wake
}

// Next reads the next batch without blocking: the first update past the
// position that the restriction keeps pairs of, or one Resync marker when
// the window has passed the position. With nothing to read yet it returns
// the zero PairBatch: wait on Updates. live is false once the subscription
// has ended (Close, its ctx, or Prepared.Close) and everything published
// before has been read; a reader that did not cancel should then
// re-resolve the handle and resubscribe.
func (s *Subscription) Next() (b PairBatch, live bool) {
	for {
		s.p.mu.Lock()
		h := &s.p.hub
		head := h.seq
		if s.closed {
			head = s.end
		}
		if s.pos == head {
			live = !s.closed && !h.closed
			s.p.mu.Unlock()
			return PairBatch{}, live
		}
		if s.pos > head || s.pos+uint64(len(h.win)) < h.seq {
			s.pos = head
			s.p.mu.Unlock()
			return PairBatch{Seq: head, Resync: true}, true
		}
		s.pos++
		seq, d := s.pos, h.win[s.pos%uint64(len(h.win))]
		s.p.mu.Unlock()
		// A published delta is immutable: filter it outside the lock.
		if pairs := s.filter(d.Pairs(s.nt)); len(pairs) > 0 {
			return PairBatch{Seq: seq, Pairs: pairs}, true
		}
	}
}

// Batches adapts the subscription to a single-use iterator: it yields
// until the subscription ends, and breaking out of the loop closes it.
func (s *Subscription) Batches() iter.Seq[PairBatch] {
	return func(yield func(PairBatch) bool) {
		for {
			b, live := s.Next()
			switch {
			case !live:
				return
			case len(b.Pairs) == 0 && !b.Resync:
				<-s.Updates()
			case !yield(b):
				s.Close()
				return
			}
		}
	}
}

// Close ends the subscription: Next still reads the updates published
// before it, then reports the end. Idempotent; ctx cancellation calls it.
func (s *Subscription) Close() {
	s.p.mu.Lock()
	if !s.closed {
		s.closed, s.end = true, s.p.hub.seq
		s.p.hub.wakeLocked()
	}
	s.p.mu.Unlock()
	s.stop()
}

// filter keeps the pairs of a row-major delta the restriction selects: a
// merge of the rows with the sorted sources and, within a row, of the
// columns with the sorted targets. Unrestricted, it is the delta's own
// read-only slice.
func (s *Subscription) filter(pairs []Pair) []Pair {
	if s.src == nil && s.tgt == nil {
		return pairs
	}
	var out []Pair
	src, tgt := s.src, s.tgt
	for k, pr := range pairs {
		if k > 0 && pr.I != pairs[k-1].I {
			tgt = s.tgt
		}
		if (s.src == nil || skipTo(&src, pr.I)) && (s.tgt == nil || skipTo(&tgt, pr.J)) {
			out = append(out, pr)
		}
	}
	return out
}

// skipTo passes the members of a sorted set below v and reports whether v
// is the next one.
func skipTo(set *[]int, v int) bool {
	for len(*set) > 0 && (*set)[0] < v {
		*set = (*set)[1:]
	}
	return len(*set) > 0 && (*set)[0] == v
}

// subHub is a Prepared's window of published deltas, guarded by its mu,
// under which publish stores the version too: a subscription's position
// and what a query issued after Subscribe returns sees agree. It starts
// counting at the first subscriber (win non-nil) and stops at Close.
type subHub struct {
	closed bool
	seq    uint64        // the head: the last sequence number published
	win    []*core.Delta // delta seq at win[seq % len(win)], for the last len(win)
	wake   chan struct{} // closed at the next publish or end; nil until someone waits
}

// publish gives a non-empty update delta the next sequence number, retains
// it in the window, and wakes whoever waits for it.
func (h *subHub) publish(d *core.Delta) {
	if h.closed || h.win == nil {
		return
	}
	h.seq++
	h.win[h.seq%uint64(len(h.win))] = d
	h.wakeLocked()
}

// wakeLocked closes the wake channel, if anyone took it.
func (h *subHub) wakeLocked() {
	if h.wake != nil {
		close(h.wake)
		h.wake = nil
	}
}

// subscribe registers a subscriber at the head or, with resume set, just
// after afterSeq: a position the window has passed, or one past the head,
// reads one Resync marker first.
func (p *Prepared) subscribe(ctx context.Context, req Request, resume bool, afterSeq uint64) (*Subscription, error) {
	if err := p.checkSubscribe(req); err != nil {
		return nil, err
	}
	s := &Subscription{
		p:   p,
		nt:  req.Nonterminal,
		src: nodeSet(req.Sources, math.MaxInt),
		tgt: nodeSet(req.Targets, math.MaxInt),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	h := &p.hub
	if h.closed {
		return nil, fmt.Errorf("cfpq: subscribe on a closed Prepared handle")
	}
	if h.win == nil {
		h.win = make([]*core.Delta, subscriptionWindow)
	}
	s.pos = h.seq
	if resume {
		s.pos = afterSeq
	}
	s.stop = context.AfterFunc(ctx, s.Close)
	return s, nil
}

// Subscribe registers a standing Request and returns a Subscription that
// reads the newly derived pairs of every subsequently published version,
// from the incremental closure's per-update delta — never by diffing full
// results (an abandoned update publishes nothing; the update that absorbs
// its edges publishes their pairs). Reads start strictly after the pairs
// visible to a query issued now; to seed state, run the same Request
// through Do first and then apply batches on top.
//
// The request must ask for pairs (the zero Output), carry no Limit and no
// call-site bindings; Sources/Targets restrict the streamed pairs exactly
// as they would a query. Readers never block writers: the handle retains
// each update's delta once, in a window of the last 64, and each
// subscription reads it at its own pace (see PairBatch.Resync). The
// subscription ends on Close, on ctx cancellation, and on Prepared.Close.
func (p *Prepared) Subscribe(ctx context.Context, req Request) (*Subscription, error) {
	return p.subscribe(ctx, req, false, 0)
}

// SubscribeFrom is Subscribe resuming after a previously seen sequence
// number: retained updates with Seq > afterSeq are read first
// (restriction-filtered), then the stream continues live. A sequence
// number the window has passed, or one the handle never issued, reads a
// single Resync marker instead of a replay — re-issue the full Request,
// then consume. This is what serves SSE Last-Event-ID reconnects.
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
// once it has read what was published before, and Subscribe fails.
// Queries and updates keep working. Close is for owners — cfpqd's registry
// calls it when a cached entry is invalidated — so subscribers learn their
// handle is gone instead of waiting forever. Idempotent.
func (p *Prepared) Close() {
	p.mu.Lock()
	p.hub.closed = true
	p.hub.wakeLocked()
	p.mu.Unlock()
}

// This file is the service's live-query path: a standing query request is
// resolved to a cached cfpq.Prepared handle exactly like POST /v1/query
// resolves a one-shot one, subscribed (cfpq.Prepared.Subscribe), and
// served as a Server-Sent Events stream by POST /v1/subscribe. Every pair
// pushed comes from the incremental closure's per-update delta — the
// server never diffs full results. Followers push too, for free: the
// replicated-apply path (replication.go) lands in the same patchIndexes →
// Prepared.AddEdges call that feeds the handle's subscription hub.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"cfpq"
)

// SubscribeRequest is the wire form of one standing query — the body of
// POST /v1/subscribe. It is a QueryRequest shorn of the one-shot knobs:
// subscriptions always stream pairs (no output/limit choice), and
// Sources/Targets filter the pushed deltas with Request restriction
// semantics (nil = unrestricted, empty = nothing).
type SubscribeRequest struct {
	Graph       string   `json:"graph"`
	Grammar     string   `json:"grammar,omitempty"`
	Backend     string   `json:"backend,omitempty"`
	Nonterminal string   `json:"nonterminal,omitempty"`
	Sources     []string `json:"sources"`
	Targets     []string `json:"targets"`
}

// SubscriptionInfo is one live subscription's observable state, rendered
// under "cfpqd_subscriptions" in /debug/vars.
type SubscriptionInfo struct {
	ID          int64  `json:"id"`
	Graph       string `json:"graph"`
	Grammar     string `json:"grammar"`
	Backend     string `json:"backend"`
	Nonterminal string `json:"nonterminal"`
	// Events/Pairs count deliveries consumed by the subscriber so far;
	// Resyncs counts deliveries that carried a lost-continuity marker.
	Events  int64 `json:"events"`
	Pairs   int64 `json:"pairs"`
	Resyncs int64 `json:"resyncs"`
	// Dropped counts update batches discarded because the subscriber's
	// bounded buffer was full (each surfaces as a later Resync).
	Dropped int64 `json:"dropped"`
	// LastSeq is the sequence number of the newest delivered update.
	LastSeq uint64 `json:"last_seq"`
	// AgeSeconds is how long the subscription has been connected.
	AgeSeconds float64 `json:"age_seconds"`
}

// ServerSubscription is one registered standing query: the library
// subscription plus the naming and accounting the serving layer adds.
type ServerSubscription struct {
	svc *Service
	sub *cfpq.Subscription
	ge  *graphEntry

	id          int64
	key         IndexKey
	nonterminal string
	started     time.Time

	events  atomic.Int64
	pairs   atomic.Int64
	resyncs atomic.Int64
	lastSeq atomic.Uint64
	closed  atomic.Bool
}

// Updates is the delivery channel (see cfpq.Subscription.Updates): one
// PairBatch per index update that derived new matching pairs, closed when
// the subscription ends — including when the served handle is invalidated
// (graph or grammar replaced, or an over-budget update), which a consumer
// should treat as "re-query and resubscribe". Writes that intern new nodes
// are updates like any other and arrive here as batches.
func (ss *ServerSubscription) Updates() <-chan cfpq.PairBatch { return ss.sub.Updates() }

// note records one consumed delivery in the per-subscription and service
// counters.
func (ss *ServerSubscription) note(b cfpq.PairBatch) {
	ss.events.Add(1)
	ss.pairs.Add(int64(len(b.Pairs)))
	ss.lastSeq.Store(b.Seq)
	ss.svc.obs.subEvents.Inc()
	ss.svc.obs.subPairs.Add(uint64(len(b.Pairs)))
	if b.Resync {
		ss.resyncs.Add(1)
		ss.svc.obs.subResyncs.Inc()
	}
}

// render shapes one delivery into the wire event payload, resolving node
// names under the graph entry's read lock.
func (ss *ServerSubscription) render(b cfpq.PairBatch) wirePairBatch {
	out := wirePairBatch{Seq: b.Seq, Resync: b.Resync, Pairs: make([]NamedPair, len(b.Pairs))}
	ss.ge.mu.RLock()
	for i, p := range b.Pairs {
		out.Pairs[i] = NamedPair{From: ss.ge.names.Name(p.I), To: ss.ge.names.Name(p.J)}
	}
	ss.ge.mu.RUnlock()
	return out
}

// wirePairBatch is the data payload of one SSE "pairs" event.
type wirePairBatch struct {
	Seq    uint64      `json:"seq"`
	Resync bool        `json:"resync,omitempty"`
	Pairs  []NamedPair `json:"pairs"`
}

// Close ends the subscription and deregisters it. Idempotent. Its drops
// (final once the library subscription is closed) move to the service's
// closed-subscription total in the same critical section that removes it
// from the live set, so a concurrent scrape counts them exactly once.
func (ss *ServerSubscription) Close() {
	if ss.closed.Swap(true) {
		return
	}
	ss.sub.Close()
	ss.svc.subMu.Lock()
	ss.svc.subDropsClosed += ss.sub.Dropped()
	delete(ss.svc.subsLive, ss.id)
	ss.svc.subMu.Unlock()
}

// Subscribe registers a standing query against the target's cached index
// (building it on first use, exactly like a query would) and returns the
// live subscription. Deliveries start strictly after the pairs a query
// issued now would see. With resume set, updates retained since afterSeq
// are replayed first; a gap wider than the retained window delivers a
// single Resync marker instead (the Last-Event-ID contract of the SSE
// route). Subscribing is a read: followers serve subscriptions — fed by
// the replicated apply path — exactly like leaders.
func (s *Service) Subscribe(ctx context.Context, req SubscribeRequest, resume bool, afterSeq uint64) (*ServerSubscription, error) {
	if req.Graph == "" {
		return nil, fmt.Errorf("server: graph is required")
	}
	if req.Grammar == "" {
		return nil, fmt.Errorf("server: grammar is required")
	}
	if req.Nonterminal == "" {
		return nil, fmt.Errorf("server: nonterminal is required")
	}
	t := Target{Graph: req.Graph, Grammar: req.Grammar, Backend: req.Backend}
	ge, p, creq, err := s.resolve(ctx, t, req.Nonterminal, "", req.Sources, req.Targets)
	if err != nil {
		return nil, err
	}
	var sub *cfpq.Subscription
	if resume {
		sub, err = p.SubscribeFrom(ctx, creq, afterSeq)
	} else {
		sub, err = p.Subscribe(ctx, creq)
	}
	if err != nil {
		return nil, err
	}
	ss := &ServerSubscription{
		svc: s, sub: sub, ge: ge,
		key: t.key(), nonterminal: req.Nonterminal, started: time.Now(),
	}
	s.subMu.Lock()
	s.subNextID++
	ss.id = s.subNextID
	if s.subsLive == nil {
		s.subsLive = map[int64]*ServerSubscription{}
	}
	s.subsLive[ss.id] = ss
	s.subMu.Unlock()
	s.obs.subsTotal.Inc()
	return ss, nil
}

// SubscriptionInfos snapshots every live subscription, sorted by id.
func (s *Service) SubscriptionInfos() []SubscriptionInfo {
	s.subMu.Lock()
	subs := make([]*ServerSubscription, 0, len(s.subsLive))
	for _, ss := range s.subsLive {
		subs = append(subs, ss)
	}
	s.subMu.Unlock()
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })
	out := make([]SubscriptionInfo, len(subs))
	for i, ss := range subs {
		out[i] = SubscriptionInfo{
			ID:          ss.id,
			Graph:       ss.key.Graph,
			Grammar:     ss.key.Grammar,
			Backend:     ss.key.Backend,
			Nonterminal: ss.nonterminal,
			Events:      ss.events.Load(),
			Pairs:       ss.pairs.Load(),
			Resyncs:     ss.resyncs.Load(),
			Dropped:     ss.sub.Dropped(),
			LastSeq:     ss.lastSeq.Load(),
			AgeSeconds:  time.Since(ss.started).Seconds(),
		}
	}
	return out
}

// defaultHeartbeat is the SSE keep-alive comment interval: frequent enough
// that idle streams survive typical proxy idle timeouts, rare enough to be
// free.
const defaultHeartbeat = 15 * time.Second

// SetSubscribeHeartbeat overrides the SSE heartbeat interval (tests use
// short ones); d <= 0 restores the default.
func (s *Service) SetSubscribeHeartbeat(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.subHeartbeatNs.Store(int64(d))
}

func (s *Service) subscribeHeartbeat() time.Duration {
	if ns := s.subHeartbeatNs.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return defaultHeartbeat
}

// serveSubscribe is POST /v1/subscribe: a Server-Sent Events stream of the
// standing query's newly derived pairs.
//
//	id: <seq>                       the update's sequence number — becomes
//	                                the client's Last-Event-ID on reconnect
//	event: pairs                    one index update's new matching pairs:
//	data: {"seq":..,"pairs":[{"from":..,"to":..}],"resync":true?}
//	event: resync                   the served index was invalidated (graph
//	                                or grammar replaced, or an over-budget
//	                                update); re-query and reconnect without
//	                                Last-Event-ID
//	: hb                            heartbeat comment on an idle stream
//
// A reconnect carrying Last-Event-ID resumes within the handle's retained
// window; a wider gap (or a handle rebuilt since) delivers one batch with
// "resync":true, meaning re-issue the full query before trusting deltas.
func (s *Service) serveSubscribe(w http.ResponseWriter, r *http.Request) {
	var req SubscribeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDocumentBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("server: response writer cannot stream"))
		return
	}
	resume := false
	var afterSeq uint64
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		v, err := strconv.ParseUint(lid, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad Last-Event-ID %q: %w", lid, err))
			return
		}
		resume, afterSeq = true, v
	}
	ss, err := s.Subscribe(r.Context(), req, resume, afterSeq)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	defer ss.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // reverse proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	// The subscription is registered before the first byte: once a client
	// reads this prelude, every later update will reach it.
	fmt.Fprint(w, ": subscribed\n\n")
	fl.Flush()

	hb := time.NewTicker(s.subscribeHeartbeat())
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		case b, ok := <-ss.Updates():
			if !ok {
				// The handle was closed under the subscription — the cache
				// entry was invalidated (graph or grammar replaced, or an
				// over-budget update). Resume state died with it: tell the
				// client to start over rather than trust a Last-Event-ID
				// replay against a different handle generation.
				fmt.Fprint(w, "event: resync\ndata: {\"reason\":\"index handle closed; re-query and reconnect\"}\n\n")
				fl.Flush()
				return
			}
			ss.note(b)
			payload, err := json.Marshal(ss.render(b))
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: pairs\ndata: %s\n\n", b.Seq, payload)
			fl.Flush()
		}
	}
}

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
	"fmt"
	"net/http"
	"strconv"
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

// subscribe registers a standing query against the target's cached index
// (building it on first use, exactly like a query would) and returns the
// library subscription with the graph entry that names its pairs (that
// entry beside an error too, once the slot resolved: see resolve).
// Deliveries start strictly after the pairs a query issued now would see.
// With resume set, updates retained since afterSeq are replayed first; a
// gap wider than the retained window delivers a single Resync marker
// instead (the Last-Event-ID contract of the SSE route). Subscribing is a
// read: followers serve subscriptions — fed by the replicated apply path —
// exactly like leaders.
//
// The subscription lives as long as ctx: when ctx is done it is closed and
// deregistered, its drops (final once it is closed) moving to the closed
// total in the same critical section that removes it from the live set,
// so a concurrent scrape counts them exactly once.
func (s *Service) subscribe(ctx context.Context, req SubscribeRequest, resume bool, afterSeq uint64) (*cfpq.Subscription, *graphEntry, error) {
	if req.Graph == "" {
		return nil, nil, fmt.Errorf("server: graph is required")
	}
	if req.Grammar == "" {
		return nil, nil, fmt.Errorf("server: grammar is required")
	}
	if req.Nonterminal == "" {
		return nil, nil, fmt.Errorf("server: nonterminal is required")
	}
	t := Target{Graph: req.Graph, Grammar: req.Grammar, Backend: req.Backend}
	ge, p, creq, err := s.resolve(ctx, t, req.Nonterminal, "", req.Sources, req.Targets)
	if err != nil {
		return nil, ge, err
	}
	var sub *cfpq.Subscription
	if resume {
		sub, err = p.SubscribeFrom(ctx, creq, afterSeq)
	} else {
		sub, err = p.Subscribe(ctx, creq)
	}
	if err != nil {
		return nil, ge, err
	}
	s.subMu.Lock()
	if s.subsLive == nil {
		s.subsLive = map[*cfpq.Subscription]struct{}{}
	}
	s.subsLive[sub] = struct{}{}
	s.subMu.Unlock()
	s.obs.subsTotal.Inc()
	context.AfterFunc(ctx, func() {
		sub.Close()
		s.subMu.Lock()
		s.subDropsClosed += sub.Dropped()
		delete(s.subsLive, sub)
		s.subMu.Unlock()
	})
	return sub, ge, nil
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
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, statusFor(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	// The stream is meant to outlive writeTimeout.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
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
	// The request context ends the subscription: it is done once this
	// handler returns.
	sub, ge, err := s.subscribe(r.Context(), req, resume, afterSeq)
	if ge != nil {
		labelBackend(w, Target{Backend: req.Backend})
	}
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}

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
		case b, ok := <-sub.Updates():
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
			s.obs.subEvents.Inc()
			s.obs.subPairs.Add(uint64(len(b.Pairs)))
			if b.Resync {
				s.obs.subResyncs.Inc()
			}
			j := getJSONBuf(true)
			j.event(ge.names.View(), b)
			_, _ = w.Write(j.b)
			j.free()
			fl.Flush()
		}
	}
}

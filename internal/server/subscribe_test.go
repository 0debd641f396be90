package server

// Tests of the live-query serving layer: the service-level subscribe
// lifecycle, the SSE wire protocol of POST /v1/subscribe (prelude, pairs
// events, heartbeats, Last-Event-ID resume, the terminal resync on handle
// invalidation), the /metrics subscription gauges across a slow client's
// disconnect, a stalled reader releasing its handler, and the acceptance
// property on a follower — pairs pushed
// from the replicated-apply path equal the relation growth, exactly once.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cfpq"
)

// subTestService is queryTestServer's service exposed directly: the SSE
// tests need both the handler and the Service (to write edges and tune the
// heartbeat).
func subTestService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New()
	if _, err := s.LoadGraph("social", "edgelist",
		strings.NewReader("alice knows bob\nbob knows carol\ncarol knows dave\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", reachGrammar); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	return s, srv
}

func namedPairSet(pairs []NamedPair) map[NamedPair]bool {
	out := make(map[NamedPair]bool, len(pairs))
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

// subGauges scrapes two subscription instruments of /metrics: live
// subscriptions, and Resync markers streamed.
func subGauges(t *testing.T, srv *httptest.Server) (active, resyncs float64) {
	t.Helper()
	m := scalarSamples(t, scrape(t, srv))
	return m["cfpqd_subscriptions_active_entries"], m["cfpqd_subscription_resyncs_total"]
}

// waitNext waits up to d for sub's next batch: got reports a batch, and
// live is false once the subscription has ended.
func waitNext(sub *cfpq.Subscription, d time.Duration) (b cfpq.PairBatch, got, live bool) {
	deadline := time.After(d)
	for {
		b, live = sub.Next()
		if got = len(b.Pairs) > 0 || b.Resync; got || !live {
			return b, got, live
		}
		select {
		case <-sub.Updates():
		case <-deadline:
			return b, false, true
		}
	}
}

// TestServiceSubscribeLifecycle drives a subscription at the Go level: it
// registers, receives exactly the newly derived pairs of a leader write,
// shows in the active gauge, and is closed and deregistered when its
// context ends.
func TestServiceSubscribeLifecycle(t *testing.T) {
	s, srv := subTestService(t)
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub, ge, err := s.subscribe(subCtx, SubscribeRequest{
		Graph: "social", Grammar: "reach", Nonterminal: "S",
	}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Graph: "social", Grammar: "reach"}
	before, err := relation(ctx, s, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}

	// dave→alice closes the cycle between existing nodes: every missing
	// reachability pair appears at once.
	if _, err := s.AddEdges(ctx, "social", []EdgeSpec{{From: "dave", Label: "knows", To: "alice"}}); err != nil {
		t.Fatal(err)
	}
	after, err := relation(ctx, s, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	want := map[NamedPair]bool{}
	old := namedPairSet(before)
	for _, p := range after {
		if !old[p] {
			want[p] = true
		}
	}

	batch, pushed, live := waitNext(sub, 2*time.Second)
	if !live {
		t.Fatal("subscription closed unexpectedly")
	}
	if !pushed {
		t.Fatal("no batch pushed for the leader write")
	}
	got := namedPairSet(ge.named(batch.Pairs))
	if len(got) != len(want) {
		t.Fatalf("pushed %d pairs, relation grew by %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("pushed batch missing %v (got %v)", p, got)
		}
	}

	if active, _ := subGauges(t, srv); active != 1 {
		t.Fatalf("active subscriptions = %v, want 1", active)
	}

	cancel()
	if _, _, live := waitNext(sub, 5*time.Second); live {
		t.Fatal("subscription still delivering after its context ended")
	}
	waitFor(t, 5*time.Second, func() bool { active, _ := subGauges(t, srv); return active == 0 },
		"subscription deregistration")
	if m := s.debugCounters(); m["subscriptions"] != 1.0 {
		t.Fatalf("after teardown: metrics = %+v", m)
	}
}

// TestServiceSubscribeErrors pins the request validation of the service
// layer: missing names, unknown registry entries, unknown non-terminals.
func TestServiceSubscribeErrors(t *testing.T) {
	s, srv := subTestService(t)
	for name, req := range map[string]SubscribeRequest{
		"no graph":        {Grammar: "reach", Nonterminal: "S"},
		"no grammar":      {Graph: "social", Nonterminal: "S"},
		"no nonterminal":  {Graph: "social", Grammar: "reach"},
		"unknown graph":   {Graph: "nope", Grammar: "reach", Nonterminal: "S"},
		"unknown grammar": {Graph: "social", Grammar: "nope", Nonterminal: "S"},
		"unknown nt":      {Graph: "social", Grammar: "reach", Nonterminal: "Nope"},
		"unknown node":    {Graph: "social", Grammar: "reach", Nonterminal: "S", Sources: []string{"nobody"}},
	} {
		if _, _, err := s.subscribe(ctx, req, false, 0); err == nil {
			t.Errorf("%s: subscribe succeeded", name)
		}
	}
	if active, _ := subGauges(t, srv); active != 0 {
		t.Errorf("failed subscribes left %v registered", active)
	}
}

// TestServiceSubscribeInvalidationCloses: replacing the graph drops the
// cached index entry, and the registry closes the handle — every
// subscription ends, telling consumers to re-query.
func TestServiceSubscribeInvalidationCloses(t *testing.T) {
	s, _ := subTestService(t)
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub, _, err := s.subscribe(subCtx, SubscribeRequest{
		Graph: "social", Grammar: "reach", Nonterminal: "S",
	}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadGraph("social", "edgelist", strings.NewReader("alice knows bob\n")); err != nil {
		t.Fatal(err)
	}
	_, pushed, live := waitNext(sub, 2*time.Second)
	if pushed {
		t.Fatal("replacing the graph pushed a batch instead of invalidating")
	}
	if live {
		t.Fatal("subscription not closed by the invalidated handle")
	}
}

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	id, event, data, comment string
}

// sseConn is a live POST /v1/subscribe stream under test.
type sseConn struct {
	t      *testing.T
	resp   *http.Response
	sc     *bufio.Scanner
	cancel context.CancelFunc
}

func dialSSE(t *testing.T, srv *httptest.Server, body, lastEventID string) *sseConn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/subscribe", strings.NewReader(body))
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		defer cancel()
		t.Fatalf("POST /v1/subscribe: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	c := &sseConn{t: t, resp: resp, sc: bufio.NewScanner(resp.Body), cancel: cancel}
	t.Cleanup(c.close)
	return c
}

func (c *sseConn) close() {
	c.cancel()
	c.resp.Body.Close()
}

// frame reads one SSE frame (a block of lines up to a blank separator).
func (c *sseConn) frame() (sseFrame, bool) {
	var f sseFrame
	seen := false
	for c.sc.Scan() {
		line := c.sc.Text()
		if line == "" {
			if seen {
				return f, true
			}
			continue
		}
		seen = true
		switch {
		case strings.HasPrefix(line, "id: "):
			f.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ": "):
			f.comment = strings.TrimPrefix(line, ": ")
		default:
			c.t.Errorf("unparsed SSE line %q", line)
		}
	}
	return f, false
}

// event reads frames until one carries an event (skipping comment-only
// frames — the prelude and heartbeats).
func (c *sseConn) event() (sseFrame, bool) {
	for {
		f, ok := c.frame()
		if !ok || f.event != "" {
			return f, ok
		}
	}
}

// TestHTTPSubscribeSSE is the wire protocol end to end: prelude, a pairs
// event for a leader write (with id for resume and resolved node names),
// heartbeat comments, the /metrics subscription counters, and the
// terminal resync event when the served handle is invalidated.
func TestHTTPSubscribeSSE(t *testing.T) {
	s, srv := subTestService(t)
	s.SetSubscribeHeartbeat(25 * time.Millisecond)

	c := dialSSE(t, srv, `{"graph":"social","grammar":"reach","nonterminal":"S","targets":["alice"]}`, "")
	// The prelude comment commits the registration: everything written
	// after it reaches this stream.
	f, ok := c.frame()
	if !ok || f.comment != "subscribed" {
		t.Fatalf("prelude = %+v %v, want the subscribed comment", f, ok)
	}

	if _, err := s.AddEdges(ctx, "social", []EdgeSpec{{From: "dave", Label: "knows", To: "alice"}}); err != nil {
		t.Fatal(err)
	}
	f, ok = c.event()
	if !ok || f.event != "pairs" || f.id == "" {
		t.Fatalf("first event = %+v %v, want an id-stamped pairs event", f, ok)
	}
	var batch wirePairBatch
	if err := json.Unmarshal([]byte(f.data), &batch); err != nil {
		t.Fatalf("bad data payload %q: %v", f.data, err)
	}
	// Targets=["alice"]: of the six new pairs only the four *→alice ones
	// stream, names resolved.
	if batch.Resync || len(batch.Pairs) != 4 {
		t.Fatalf("batch = %+v, want 4 un-resynced pairs into alice", batch)
	}
	for _, p := range batch.Pairs {
		if p.To != "alice" {
			t.Fatalf("restriction leaked pair %+v", p)
		}
	}
	if fmt.Sprint(batch.Seq) != f.id {
		t.Fatalf("id %q != payload seq %d", f.id, batch.Seq)
	}

	// Heartbeats keep the idle stream warm.
	f, ok = c.frame()
	if !ok || f.comment != "hb" {
		t.Fatalf("idle frame = %+v %v, want a heartbeat comment", f, ok)
	}

	// The live subscription and what it streamed are observable.
	m := scalarSamples(t, scrape(t, srv))
	for series, want := range map[string]float64{
		"cfpqd_subscriptions_active_entries": 1,
		"cfpqd_subscription_events_total":    1,
		"cfpqd_subscription_pairs_total":     4,
		"cfpqd_subscription_resyncs_total":   0,
	} {
		if m[series] != want {
			t.Fatalf("%s = %v, want %v", series, m[series], want)
		}
	}

	// A node-growing write is one more pairs event on the same stream:
	// eve reaches alice through dave.
	if _, err := s.AddEdges(ctx, "social", []EdgeSpec{{From: "eve", Label: "knows", To: "dave"}}); err != nil {
		t.Fatal(err)
	}
	f, ok = c.event()
	if err := json.Unmarshal([]byte(f.data), &batch); !ok || f.event != "pairs" || err != nil {
		t.Fatalf("after the growing write: %+v %v %v, want a pairs event", f, ok, err)
	}
	if batch.Resync || len(batch.Pairs) != 1 || batch.Pairs[0] != (NamedPair{From: "eve", To: "alice"}) {
		t.Fatalf("growing write pushed %+v, want exactly eve→alice", batch)
	}

	// Replacing the graph invalidates the served handle: the stream ends
	// with the terminal resync event.
	if _, err := s.LoadGraph("social", "edgelist", strings.NewReader("alice knows bob\n")); err != nil {
		t.Fatal(err)
	}
	f, ok = c.event()
	if !ok || f.event != "resync" {
		t.Fatalf("after invalidation: %+v %v, want the resync event", f, ok)
	}
	if _, ok := c.frame(); ok {
		t.Fatal("stream continued past the terminal resync")
	}
	// The request context's end closes and deregisters the subscription.
	waitFor(t, 5*time.Second, func() bool { active, _ := subGauges(t, srv); return active == 0 },
		"subscription deregistration")
}

// TestHTTPSubscribeResume: a reconnect with Last-Event-ID replays the
// updates the client missed (within the retained window) before going
// live; a malformed Last-Event-ID is a 400.
func TestHTTPSubscribeResume(t *testing.T) {
	s, srv := subTestService(t)
	body := `{"graph":"social","grammar":"reach","nonterminal":"S"}`

	c1 := dialSSE(t, srv, body, "")
	if f, ok := c1.frame(); !ok || f.comment != "subscribed" {
		t.Fatalf("prelude = %+v %v", f, ok)
	}
	if _, err := s.AddEdges(ctx, "social", []EdgeSpec{{From: "bob", Label: "knows", To: "alice"}}); err != nil {
		t.Fatal(err)
	}
	f, ok := c1.event()
	if !ok || f.event != "pairs" {
		t.Fatalf("first event = %+v %v", f, ok)
	}
	lastID := f.id
	c1.close() // client drops

	// Two more writes while disconnected — between existing nodes (so the
	// cached handle and its resume window survive), each deriving new
	// reachability pairs (so each consumes a sequence number).
	for _, e := range []EdgeSpec{
		{From: "carol", Label: "knows", To: "bob"},
		{From: "dave", Label: "knows", To: "carol"},
	} {
		if _, err := s.AddEdges(ctx, "social", []EdgeSpec{e}); err != nil {
			t.Fatal(err)
		}
	}

	// Reconnect where we left off: the two missed updates replay in order,
	// un-resynced, with increasing sequence numbers.
	c2 := dialSSE(t, srv, body, lastID)
	prev := uint64(0)
	fmt.Sscan(lastID, &prev)
	for i := 0; i < 2; i++ {
		f, ok := c2.event()
		if !ok || f.event != "pairs" {
			t.Fatalf("replay %d = %+v %v", i, f, ok)
		}
		var batch wirePairBatch
		if err := json.Unmarshal([]byte(f.data), &batch); err != nil {
			t.Fatal(err)
		}
		if batch.Resync || batch.Seq != prev+1 || len(batch.Pairs) == 0 {
			t.Fatalf("replay %d = %+v, want seq %d with pairs", i, batch, prev+1)
		}
		prev = batch.Seq
	}

	// A resume from outside the window (a made-up future id) is answered
	// with a single resync marker, not a replay.
	c3 := dialSSE(t, srv, body, "9999")
	f, ok = c3.event()
	if !ok || f.event != "pairs" {
		t.Fatalf("gap resume = %+v %v", f, ok)
	}
	var batch wirePairBatch
	if err := json.Unmarshal([]byte(f.data), &batch); err != nil {
		t.Fatal(err)
	}
	if !batch.Resync || len(batch.Pairs) != 0 {
		t.Fatalf("gap resume batch = %+v, want an empty resync marker", batch)
	}

	// Malformed Last-Event-ID: 400 before any stream starts.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/subscribe", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID: %d, want 400", resp.StatusCode)
	}
}

// TestFollowerSubscriptionPush is the tentpole acceptance property on a
// replica: a subscription served by a follower fires from the
// replicated-apply path. Leader writes (among existing nodes, in random
// order) ship over the WAL; the union of the follower's pushed batches
// must equal exactly the growth of its relation — every pair once, no
// full-result diffing anywhere in the path.
func TestFollowerSubscriptionPush(t *testing.T) {
	leader, srv := leaderService(t)
	f := startFollower(t, persistentService(t, t.TempDir()), srv.URL, "f1")
	waitFor(t, 10*time.Second, func() bool { return caughtUp(f, leader, "social") }, "initial sync")

	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub, ge, err := f.svc.subscribe(subCtx, SubscribeRequest{
		Graph: "social", Grammar: "reach", Nonterminal: "S",
	}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Graph: "social", Grammar: "reach"}
	initial, err := relation(ctx, f.svc, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}

	// Every knows-edge over the existing nodes, in random order, one write
	// per batch: the closure grows step by step on both nodes.
	nodes := []string{"alice", "bob", "carol", "dora"}
	var edges []EdgeSpec
	for _, a := range nodes {
		for _, b := range nodes {
			edges = append(edges, EdgeSpec{From: a, Label: "knows", To: b})
		}
	}
	rng := rand.New(rand.NewSource(29))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		if _, err := leader.AddEdges(ctx, "social", []EdgeSpec{e}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return caughtUp(f, leader, "social") }, "live tail")

	final, err := relation(ctx, f.svc, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	old := namedPairSet(initial)
	want := map[NamedPair]bool{}
	for _, p := range final {
		if !old[p] {
			want[p] = true
		}
	}

	received := map[NamedPair]bool{}
	for len(received) < len(want) {
		b, pushed, live := waitNext(sub, 5*time.Second)
		if !live {
			t.Fatal("follower subscription closed mid-stream")
		}
		if !pushed {
			t.Fatalf("follower pushed %d of %d grown pairs", len(received), len(want))
		}
		if b.Resync {
			t.Fatalf("follower consumer fell behind: %+v", b)
		}
		for _, p := range ge.named(b.Pairs) {
			if received[p] {
				t.Fatalf("pair %+v pushed twice", p)
			}
			if !want[p] {
				t.Fatalf("pushed pair %+v is not part of the relation growth", p)
			}
			received[p] = true
		}
	}
	// No trailing over-delivery.
	if b, pushed, _ := waitNext(sub, 100*time.Millisecond); pushed && len(b.Pairs) > 0 {
		t.Fatalf("extra batch after full delivery: %+v", b)
	}
	// And the follower agrees with the leader, as ever.
	want2, err := relation(ctx, leader, tgt, "S")
	if err != nil {
		t.Fatal(err)
	}
	if len(want2) != len(final) {
		t.Fatalf("follower relation %d pairs, leader %d", len(final), len(want2))
	}
}

// smallSendBuffers caps the kernel send buffer of every accepted
// connection, so a client that stops reading stalls the SSE handler after a
// few kilobytes instead of after whatever the socket autotunes to.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestHTTPSubscribeTeardown: a subscription's one record is its place in
// the active count, and the end of its request removes it. A client that
// stops reading while far more than the window (64) of updates land still
// counts as active; once it disconnects, the active gauge reads 0 again.
// Replacing the graph under a stream ends it with the terminal resync
// event and deregisters it the same way.
func TestHTTPSubscribeTeardown(t *testing.T) {
	// fan sources all reach n0; every update extends the chain n0 → n1 → …
	// by one edge, so each pushes one pair per node before it: a few
	// kilobytes per event.
	const fan, updates = 100, 200
	var doc strings.Builder
	for i := 0; i < fan; i++ {
		fmt.Fprintf(&doc, "s%d knows n0\n", i)
	}
	s := New()
	if _, err := s.LoadGraph("social", "edgelist", strings.NewReader(doc.String())); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", reachGrammar); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(Handler(s))
	srv.Listener = smallSendBuffers{srv.Listener}
	srv.Start()
	t.Cleanup(srv.Close)
	body := `{"graph":"social","grammar":"reach","nonterminal":"S"}`

	c := dialSSE(t, srv, body, "")
	if f, ok := c.frame(); !ok || f.comment != "subscribed" {
		t.Fatalf("prelude = %+v %v", f, ok)
	}
	// The client reads nothing more from here on.
	for i := 0; i < updates; i++ {
		e := EdgeSpec{From: fmt.Sprintf("n%d", i), Label: "knows", To: fmt.Sprintf("n%d", i+1)}
		if _, err := s.AddEdges(ctx, "social", []EdgeSpec{e}); err != nil {
			t.Fatal(err)
		}
	}
	if active, _ := subGauges(t, srv); active != 1 {
		t.Fatalf("stalled client: active %v, want 1", active)
	}

	c.close()
	waitFor(t, 5*time.Second, func() bool {
		active, _ := subGauges(t, srv)
		return active == 0
	}, "the disconnected subscription's deregistration")

	c = dialSSE(t, srv, body, "")
	if f, ok := c.frame(); !ok || f.comment != "subscribed" {
		t.Fatalf("prelude = %+v %v", f, ok)
	}
	if code, resp := httpDo(t, srv, http.MethodPut, "/v1/graphs/social?format=edgelist", "a knows b\n"); code != http.StatusOK {
		t.Fatalf("PUT graph: %d %v", code, resp)
	}
	if f, ok := c.event(); !ok || f.event != "resync" {
		t.Fatalf("after the graph PUT: %+v %v, want the resync event", f, ok)
	}
	waitFor(t, 5*time.Second, func() bool { active, _ := subGauges(t, srv); return active == 0 },
		"the resynced subscription's deregistration")
}

package cfpq_test

// Tests of the live-query surface: Prepared.Subscribe push batches are the
// exact newly-derived pairs of each AddEdges (the acceptance property — a
// full before/after diff is computed here only as the test oracle; the
// push path itself never diffs), exactly-once delivery across a cancelled
// patch and its repairing rebuild, restriction filtering, the
// window-passed resync of a slow reader, resume (SubscribeFrom), teardown,
// request validation, a -race stress of subscribers against writers, and
// the cursor property: restricted readers at random paces beside a writer.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"cfpq"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

func pairSet(pairs []cfpq.Pair) map[cfpq.Pair]bool {
	s := make(map[cfpq.Pair]bool, len(pairs))
	for _, p := range pairs {
		s[p] = true
	}
	return s
}

// diffPairs returns after − before as a set.
func diffPairs(before, after []cfpq.Pair) map[cfpq.Pair]bool {
	old := pairSet(before)
	out := map[cfpq.Pair]bool{}
	for _, p := range after {
		if !old[p] {
			out[p] = true
		}
	}
	return out
}

// tryNext reads one batch without blocking — publish runs synchronously
// inside AddEdges, so anything published is already readable. ok reports a
// batch.
func tryNext(s *cfpq.Subscription) (cfpq.PairBatch, bool) {
	b, _ := s.Next()
	return b, len(b.Pairs) > 0 || b.Resync
}

// recvClosed waits (briefly) for the subscription to end, skipping any
// still-readable batches; teardown via context.AfterFunc is asynchronous.
func recvClosed(t *testing.T, s *cfpq.Subscription) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		b, live := s.Next()
		if !live {
			return
		}
		if len(b.Pairs) > 0 || b.Resync {
			continue
		}
		select {
		case <-s.Updates():
		case <-deadline:
			t.Fatal("subscription not ended")
		}
	}
}

// TestSubscribeDeltaMatchesDiffProperty is the live-query acceptance
// property: on random grammars and random graphs, for every backend, each
// AddEdges pushes to every subscriber exactly the pairs by which the full
// relation grew — verified against a before/after diff of the materialised
// relation, for every non-terminal, with strictly increasing sequence
// numbers and no Resync markers (the consumer keeps up).
func TestSubscribeDeltaMatchesDiffProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(83))
	cfg := grammar.DefaultRandomConfig()
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for _, be := range cfpq.Backends() {
		eng := cfpq.NewEngine(be)
		for trial := 0; trial < trials; trial++ {
			gram := grammar.RandomGrammar(rng, cfg)
			labels := gram.Terminals()
			if len(labels) == 0 {
				continue // ε-only grammar: no edges to stream
			}
			n := 4 + rng.Intn(10)
			full := graph.Random(rng, n, 2+rng.Intn(3*n), labels)
			edges := full.Edges()
			split := rng.Intn(len(edges))
			prefix := graph.New(full.Nodes())
			for _, ed := range edges[:split] {
				prefix.AddEdge(ed.From, ed.Label, ed.To)
			}
			p, err := eng.Prepare(ctx, prefix, gram)
			if err != nil {
				continue // e.g. a grammar the CNF conversion rejects
			}

			// One unrestricted subscription per queryable non-terminal.
			subs := map[string]*cfpq.Subscription{}
			before := map[string][]cfpq.Pair{}
			for _, nt := range gram.Nonterminals() {
				s, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: nt})
				if err != nil {
					continue // a non-terminal the CNF conversion elided
				}
				defer s.Close()
				subs[nt] = s
				before[nt] = relationOf(t, p, nt)
			}

			lastSeq := uint64(0)
			rest := edges[split:]
			for len(rest) > 0 {
				k := 1 + rng.Intn(3)
				if k > len(rest) {
					k = len(rest)
				}
				batch, tail := rest[:k], rest[k:]
				rest = tail
				info, err := p.AddEdges(ctx, batch...)
				if err != nil {
					t.Fatalf("%s trial %d: AddEdges: %v", be, trial, err)
				}
				for nt, s := range subs {
					after := relationOf(t, p, nt)
					want := diffPairs(before[nt], after)
					before[nt] = after

					// The exposed per-update delta is exactly the growth.
					var fromDelta []cfpq.Pair
					if info.Delta != nil {
						fromDelta = info.Delta.Pairs(nt)
					}
					if got := pairSet(fromDelta); len(got) != len(want) || !equalSets(got, want) {
						t.Fatalf("%s trial %d nt=%s: UpdateInfo.Delta = %v, diff oracle = %v\ngrammar:\n%s",
							be, trial, nt, fromDelta, setList(want), gram)
					}

					// And so is the pushed batch (at most one per update).
					b, ok := tryNext(s)
					if !ok {
						if len(want) != 0 {
							t.Fatalf("%s trial %d nt=%s: no batch pushed, diff oracle = %v",
								be, trial, nt, setList(want))
						}
						continue
					}
					if b.Resync {
						t.Fatalf("%s trial %d nt=%s: unexpected Resync on a kept-up consumer", be, trial, nt)
					}
					if b.Seq < lastSeq {
						t.Fatalf("%s trial %d nt=%s: sequence went backwards: %d after %d", be, trial, nt, b.Seq, lastSeq)
					}
					if got := pairSet(b.Pairs); !equalSets(got, want) {
						t.Fatalf("%s trial %d nt=%s: pushed %v, diff oracle = %v", be, trial, nt, b.Pairs, setList(want))
					}
					if b.Seq > lastSeq {
						lastSeq = b.Seq
					}
					if extra, ok := tryNext(s); ok {
						t.Fatalf("%s trial %d nt=%s: second batch %v for one update", be, trial, nt, extra)
					}
				}
			}
		}
	}
}

func equalSets(a, b map[cfpq.Pair]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}

func setList(s map[cfpq.Pair]bool) []cfpq.Pair {
	out := make([]cfpq.Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	return out
}

// TestSubscribeCancelledRepairExactlyOnce: a cancelled AddEdges — before
// its first pass, or mid-closure with part of the patch already derived on
// the fork — publishes nothing; the retry publishes the whole patch. Every
// subscriber sees each newly derived pair exactly once, under every
// backend name.
func TestSubscribeCancelledRepairExactlyOnce(t *testing.T) {
	isCancelled := func(err error) bool { return errors.Is(err, context.Canceled) }
	for _, name := range backendNames {
		be := mustBackend(t, name)
		t.Run(name, func(t *testing.T) {
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			interruptedPatchExactlyOnce(t, cfpq.NewEngine(be), cancelled, isCancelled, true)
		})
		t.Run(name+"/mid-closure", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			derived := 0
			ctx = cfpq.WithTraceContext(ctx, &cfpq.Trace{Pass: func(ev cfpq.PassEvent) {
				if derived += ev.TotalDelta(); ev.Pass == 2 {
					cancel()
				}
			}})
			interruptedPatchExactlyOnce(t, cfpq.NewEngine(be), ctx, isCancelled, true)
			if derived < 2 {
				t.Fatalf("the update was cancelled with %d bits derived; the case wants a partly propagated fork", derived)
			}
		})
	}
}

// interruptedPatchExactlyOnce prepares a^6 b^5 on eng, subscribes to S and
// adds the sixth b-edge under patchCtx — which must fail with an error
// interrupted accepts. The abandoned update must publish nothing: an empty
// non-nil Delta, no push, the same version number, and every answer
// bit-identical to before the call. An empty AddEdges then retries the
// edge. When the retry fits (a cancellation is gone, an engine-wide budget
// is not) the subscriber must have received every pair the edge derives
// exactly once and the handle must answer like a cold closure of the full
// graph; when it does not, it must be abandoned exactly like the first.
func interruptedPatchExactlyOnce(t *testing.T, eng *cfpq.Engine, patchCtx context.Context, interrupted func(error) bool, retryFits bool) {
	t.Helper()
	ctx := context.Background()
	gram := cfpq.MustParseGrammar("S -> a S b | a b")
	g := cfpq.NewGraph(0)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, "a", i+1)
	}
	for i := 6; i < 11; i++ {
		g.AddEdge(i, "b", i+1)
	}
	p, err := eng.Prepare(ctx, g.Clone(), gram)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	type answers struct {
		Relation, From []cfpq.Pair
		Counts         map[string]int
		Exists         bool
	}
	ask := func() answers {
		return answers{
			relationOf(t, p, "S"),
			read(t, p, cfpq.Request{Nonterminal: "S", Sources: []int{0, 5}}).AllPairs(),
			p.Stats().Counts,
			read(t, p, cfpq.Request{Nonterminal: "S", Sources: []int{0}, Targets: []int{12}, Output: cfpq.OutputExists}).Exists,
		}
	}
	before := ask()
	abandoned := func(step string, info cfpq.UpdateInfo, err error) {
		t.Helper()
		if !interrupted(err) {
			t.Fatalf("%s: err = %v", step, err)
		}
		if info.Delta == nil || !info.Delta.Empty() {
			t.Fatalf("%s: Delta = %v, want empty and non-nil", step, info.Delta)
		}
		if b, ok := tryNext(sub); ok {
			t.Fatalf("%s pushed %v; an abandoned update publishes nothing", step, b)
		}
		if after := ask(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s changed the answers: %+v, before %+v", step, after, before)
		}
		if v := p.Stats().Version; v != 0 {
			t.Fatalf("%s published version %d", step, v)
		}
	}

	info, err := p.AddEdges(patchCtx, cfpq.Edge{From: 11, Label: "b", To: 12})
	abandoned("interrupted update", info, err)
	if info.Added != 1 {
		t.Fatalf("interrupted update: Added = %d, want the journaled edge counted", info.Added)
	}
	// Retry with an empty update: the edge is pending, not lost.
	info, err = p.AddEdges(ctx)
	if !retryFits {
		abandoned("retry", info, err)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Stats().Version; v != 1 {
		t.Fatalf("retry published version %d, want 1", v)
	}

	g.AddEdge(11, "b", 12)
	cnf, _ := cfpq.ToCNF(gram)
	cold, _, err := cfpq.NewEngine(eng.Backend()).Evaluate(ctx, g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	if after := relationOf(t, p, "S"); !reflect.DeepEqual(after, cold.Relation("S")) {
		t.Fatalf("retried handle answers %v, cold closure %v", after, cold.Relation("S"))
	}
	want := diffPairs(before.Relation, cold.Relation("S"))
	if got := pairSet(info.Delta.Pairs("S")); !equalSets(got, want) {
		t.Fatalf("retry's Delta holds %v, want the whole patch %v", setList(got), setList(want))
	}

	got := map[cfpq.Pair]bool{}
	for {
		b, ok := tryNext(sub)
		if !ok {
			break
		}
		for _, pr := range b.Pairs {
			if got[pr] {
				t.Fatalf("pair %v delivered twice across the interrupted update and its retry", pr)
			}
			got[pr] = true
		}
	}
	if !equalSets(got, want) {
		t.Fatalf("interrupted update + retry delivered %v, want exactly %v", setList(got), setList(want))
	}
}

// TestSubscribeRestrictionFiltering: Sources/Targets restrict the streamed
// pairs exactly as they would a query.
func TestSubscribeRestrictionFiltering(t *testing.T) {
	ctx := context.Background()
	g := cfpq.NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "a", 3)
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, cfpq.MustParseGrammar("S -> a | a S"))
	if err != nil {
		t.Fatal(err)
	}
	all, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	restricted, err := p.Subscribe(ctx, cfpq.Request{
		Nonterminal: "S", Sources: []int{0}, Targets: []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restricted.Close()

	if _, err := p.AddEdges(ctx, cfpq.Edge{From: 3, Label: "a", To: 4}); err != nil {
		t.Fatal(err)
	}
	b, ok := tryNext(all)
	if !ok {
		t.Fatal("unrestricted subscription got no batch")
	}
	// New edge a(3,4) newly derives S(i,4) for i in 0..3.
	wantAll := pairSet([]cfpq.Pair{{I: 0, J: 4}, {I: 1, J: 4}, {I: 2, J: 4}, {I: 3, J: 4}})
	if got := pairSet(b.Pairs); !equalSets(got, wantAll) {
		t.Fatalf("unrestricted batch %v, want %v", b.Pairs, setList(wantAll))
	}
	rb, ok := tryNext(restricted)
	if !ok {
		t.Fatal("restricted subscription got no batch")
	}
	if len(rb.Pairs) != 1 || rb.Pairs[0] != (cfpq.Pair{I: 0, J: 4}) {
		t.Fatalf("restricted batch %v, want [(0,4)]", rb.Pairs)
	}
	// An update producing only out-of-restriction pairs pushes nothing.
	if _, err := p.AddEdges(ctx, cfpq.Edge{From: 4, Label: "a", To: 5}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tryNext(all); !ok {
		t.Fatal("unrestricted subscription missed the second update")
	}
	if extra, ok := tryNext(restricted); ok {
		// S(0,5) is in range for source 0 but target 5 ≠ 4 — filtered out.
		t.Fatalf("restricted subscription got %v for out-of-restriction update", extra)
	}
}

// TestSubscribeSlowConsumerDropResync pins the documented slow-consumer
// policy: publishing never blocks the writer and drops nothing while the
// reader's position is in the window; once the window (64 updates) has
// passed it, the reader reads one empty Resync marker at the head and then
// continues live.
func TestSubscribeSlowConsumerDropResync(t *testing.T) {
	ctx := context.Background()
	g := cfpq.NewGraph(0)
	g.AddEdge(0, "a", 1)
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, cfpq.MustParseGrammar("S -> a | a S"))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// 70 delta-producing updates with nothing reading: the window keeps
	// the last 64, so the reader's position (0) has been passed.
	const updates = 70
	for i := 1; i <= updates; i++ {
		if _, err := p.AddEdges(ctx, cfpq.Edge{From: i, Label: "a", To: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	b, ok := tryNext(sub)
	if !ok || !b.Resync || b.Seq != updates || len(b.Pairs) != 0 {
		t.Fatalf("first read after %d unread updates = %+v (ok %v), want an empty Resync marker at seq %d", updates, b, ok, updates)
	}
	if extra, ok := tryNext(sub); ok {
		t.Fatalf("a read after the marker returned %+v; the marker stands at the head", extra)
	}
	// From the head the reader is live again.
	if _, err := p.AddEdges(ctx, cfpq.Edge{From: updates + 1, Label: "a", To: updates + 2}); err != nil {
		t.Fatal(err)
	}
	b, ok = tryNext(sub)
	if !ok || b.Resync || b.Seq != updates+1 || len(b.Pairs) != updates+2 {
		t.Fatalf("read after the marker = %+v (ok %v), want seq %d's %d pairs, no Resync", b, ok, updates+1, updates+2)
	}
}

// TestSubscribeFromResume: retained updates past the given sequence number
// replay on resume; a gap wider than the retained window (or a bogus
// future sequence) yields a single Resync marker instead.
func TestSubscribeFromResume(t *testing.T) {
	ctx := context.Background()
	g := cfpq.NewGraph(0)
	g.AddEdge(0, "a", 1)
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, cfpq.MustParseGrammar("S -> a | a S"))
	if err != nil {
		t.Fatal(err)
	}
	live, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	var seen []cfpq.PairBatch
	for i := 1; i <= 5; i++ {
		if _, err := p.AddEdges(ctx, cfpq.Edge{From: i, Label: "a", To: i + 1}); err != nil {
			t.Fatal(err)
		}
		b, ok := tryNext(live)
		if !ok {
			t.Fatalf("update %d pushed no batch", i)
		}
		seen = append(seen, b)
	}
	live.Close()

	// Resume after the 2nd update: batches 3..5 replay, verbatim.
	resumed, err := p.SubscribeFrom(ctx, cfpq.Request{Nonterminal: "S"}, seen[1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for _, want := range seen[2:] {
		b, ok := tryNext(resumed)
		if !ok {
			t.Fatalf("replay missing batch %d", want.Seq)
		}
		if b.Resync || b.Seq != want.Seq || !equalSets(pairSet(b.Pairs), pairSet(want.Pairs)) {
			t.Fatalf("replayed %+v, want %+v", b, want)
		}
	}
	if extra, ok := tryNext(resumed); ok {
		t.Fatalf("replay over-delivered: %+v", extra)
	}
	// And the resumed subscription continues live.
	if _, err := p.AddEdges(ctx, cfpq.Edge{From: 6, Label: "a", To: 7}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tryNext(resumed); !ok {
		t.Fatal("resumed subscription not live")
	}

	// A sequence number the hub never issued: one Resync marker, no replay.
	gap, err := p.SubscribeFrom(ctx, cfpq.Request{Nonterminal: "S"}, 999)
	if err != nil {
		t.Fatal(err)
	}
	defer gap.Close()
	b, ok := tryNext(gap)
	if !ok {
		t.Fatal("gap resume produced no marker")
	}
	if !b.Resync || len(b.Pairs) != 0 {
		t.Fatalf("gap resume produced %+v, want an empty Resync marker", b)
	}
	if extra, ok := tryNext(gap); ok {
		t.Fatalf("gap resume replayed %+v", extra)
	}
}

// TestSubscribeTeardown: ctx cancellation and Close both end the
// subscription (Next reports the end); Prepared.Close ends every subscription
// and rejects future ones. All are idempotent.
func TestSubscribeTeardown(t *testing.T) {
	g := cfpq.NewGraph(0)
	g.AddEdge(0, "a", 1)
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(context.Background(), g, cfpq.MustParseGrammar("S -> a | a S"))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	byCtx, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	recvClosed(t, byCtx)
	byCtx.Close() // idempotent after ctx teardown

	byClose, err := p.Subscribe(context.Background(), cfpq.Request{Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	byClose.Close()
	byClose.Close()
	recvClosed(t, byClose)

	survivor, err := p.Subscribe(context.Background(), cfpq.Request{Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	recvClosed(t, survivor)
	p.Close() // idempotent
	if _, err := p.Subscribe(context.Background(), cfpq.Request{Nonterminal: "S"}); err == nil {
		t.Fatal("Subscribe succeeded on a closed handle")
	}
	// Queries and updates still work on a closed handle; publishes no-op.
	if _, err := p.AddEdges(context.Background(), cfpq.Edge{From: 1, Label: "a", To: 2}); err != nil {
		t.Fatal(err)
	}
	if !read(t, p, cfpq.Request{Nonterminal: "S", Sources: []int{0}, Targets: []int{2}, Output: cfpq.OutputExists}).Exists {
		t.Fatal("closed handle stopped answering")
	}
}

// TestSubscribeValidation pins the request shapes a subscription rejects,
// as structured *RequestError values, plus the unknown-non-terminal error.
func TestSubscribeValidation(t *testing.T) {
	ctx := context.Background()
	g := cfpq.NewGraph(0)
	g.AddEdge(0, "a", 1)
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, cfpq.MustParseGrammar("S -> a | a S"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		req   cfpq.Request
		field string
	}{
		{"count output", cfpq.Request{Nonterminal: "S", Output: cfpq.OutputCount}, "output"},
		{"exists output", cfpq.Request{Nonterminal: "S", Output: cfpq.OutputExists, Sources: []int{0}, Targets: []int{1}}, "output"},
		{"limit", cfpq.Request{Nonterminal: "S", Limit: 5}, "limit"},
		{"max path length", cfpq.Request{Nonterminal: "S", MaxPathLength: 3}, "max_path_length"},
		{"own grammar", cfpq.Request{Nonterminal: "S", Grammar: cfpq.MustParseGrammar("S -> a")}, "grammar"},
	}
	for _, tc := range cases {
		_, err := p.Subscribe(ctx, tc.req)
		var re *cfpq.RequestError
		if !errors.As(err, &re) {
			t.Errorf("%s: err = %v, want *RequestError", tc.name, err)
			continue
		}
		if re.Field != tc.field {
			t.Errorf("%s: field = %q, want %q", tc.name, re.Field, tc.field)
		}
	}
	if _, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: "Nope"}); err == nil {
		t.Error("unknown non-terminal accepted")
	}
}

// TestLimitedCountRejectedOnLibrarySurface is the satellite pin for the
// count+limit fix at the Go API layer: a Limit on OutputCount is a
// structured validation error (counts are exact; they honour no limit), on
// both Engine.Do and Prepared.Do.
func TestLimitedCountRejectedOnLibrarySurface(t *testing.T) {
	ctx := context.Background()
	g := cfpq.NewGraph(0)
	g.AddEdge(0, "a", 1)
	gram := cfpq.MustParseGrammar("S -> a | a S")
	eng := cfpq.NewEngine(cfpq.Sparse)

	_, err := eng.Do(ctx, cfpq.Request{
		Graph: g, Grammar: gram, Nonterminal: "S", Output: cfpq.OutputCount, Limit: 3,
	})
	var re *cfpq.RequestError
	if !errors.As(err, &re) || re.Field != "limit" {
		t.Fatalf("Engine.Do err = %v, want *RequestError on field \"limit\"", err)
	}
	p, errPrep := eng.Prepare(ctx, g, gram)
	if errPrep != nil {
		t.Fatal(errPrep)
	}
	_, err = p.Do(ctx, cfpq.Request{Nonterminal: "S", Output: cfpq.OutputCount, Limit: 3})
	if !errors.As(err, &re) || re.Field != "limit" {
		t.Fatalf("Prepared.Do err = %v, want *RequestError on field \"limit\"", err)
	}
}

// TestSubscribeRaceUpdates races subscribers (consuming, churning, and
// closing) against a writer streaming edges, snapshot serialisation, and
// queries; run under -race. Afterwards the union of one consumer's batches
// must equal the relation growth — concurrency loses nothing.
func TestSubscribeRaceUpdates(t *testing.T) {
	ctx := context.Background()
	const k = 8
	const extra = 24
	g := cfpq.NewGraph(0)
	for i := 0; i < k; i++ {
		g.AddEdge(i, "a", i+1)
	}
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, cfpq.MustParseGrammar("S -> a | a S"))
	if err != nil {
		t.Fatal(err)
	}
	before := relationOf(t, p, "S")
	sub, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}

	var writers sync.WaitGroup
	var mu sync.Mutex
	received := map[cfpq.Pair]bool{}
	errs := make(chan error, 8)
	start := make(chan struct{})

	writers.Add(1)
	go func() { // writer
		defer writers.Done()
		<-start
		for i := 0; i < extra; i++ {
			if _, err := p.AddEdges(ctx, cfpq.Edge{From: k + i, Label: "a", To: k + i + 1}); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	consumerDone := make(chan struct{})
	go func() { // the audited consumer
		defer close(consumerDone)
		<-start
		for b := range sub.Batches() {
			mu.Lock()
			if b.Resync {
				errs <- fmt.Errorf("audited consumer lost continuity at seq %d", b.Seq)
			}
			for _, pr := range b.Pairs {
				if received[pr] {
					errs <- fmt.Errorf("pair %v delivered twice", pr)
				}
				received[pr] = true
			}
			mu.Unlock()
		}
	}()
	writers.Add(1)
	go func() { // subscription churn
		defer writers.Done()
		<-start
		for i := 0; i < 20; i++ {
			s, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: "S", Sources: []int{0}})
			if err != nil {
				errs <- fmt.Errorf("churn: %w", err)
				return
			}
			tryNext(s)
			s.Close()
		}
	}()
	writers.Add(1)
	go func() { // readers: queries and snapshot serialisation
		defer writers.Done()
		<-start
		for i := 0; i < 20; i++ {
			countOf(t, p, "S")
			if err := p.WriteIndex(io.Discard); err != nil {
				errs <- fmt.Errorf("WriteIndex: %w", err)
				return
			}
		}
	}()

	close(start)
	// Let the writer and helpers finish, then end the consumer's stream;
	// the consumer still reads every update published before Close.
	writers.Wait()
	sub.Close()
	select {
	case <-consumerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer did not finish")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := diffPairs(before, relationOf(t, p, "S"))
	mu.Lock()
	defer mu.Unlock()
	if !equalSets(received, want) {
		t.Fatalf("consumer union has %d pairs, relation grew by %d", len(received), len(want))
	}
}

// TestSubscribeLifecycleRacesWrites: Subscribe, SubscribeFrom,
// Subscription.Close and Prepared.Close race AddEdges and QueryBatch on
// one handle. Every subscription sees each delta at most once and in seq
// order, and nothing deadlocks: subscribers and the publisher share one
// mutex.
func TestSubscribeLifecycleRacesWrites(t *testing.T) {
	ctx := context.Background()
	const edges = 60
	g := cfpq.NewGraph(0)
	g.AddEdge(0, "a", 1)
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, cfpq.MustParseGrammar("S -> a | a S"))
	if err != nil {
		t.Fatal(err)
	}
	halfway := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer, growing the chain one node per update
		defer wg.Done()
		for i := 1; i <= edges; i++ {
			if _, err := p.AddEdges(ctx, cfpq.Edge{From: i, Label: "a", To: i + 1}); err != nil {
				t.Errorf("AddEdges: %v", err)
				return
			}
			if i == edges/2 {
				close(halfway)
			}
		}
	}()
	wg.Add(1)
	go func() { // batches beside the writer
		defer wg.Done()
		for i := 0; i < edges; i++ {
			for _, r := range p.QueryBatch(ctx, []cfpq.Request{
				{Nonterminal: "S", Output: cfpq.OutputCount},
				{Nonterminal: "S", Sources: []int{0}},
			}) {
				if r.Err != nil {
					t.Errorf("QueryBatch: %v", r.Err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // the owner closes the handle's live side mid-stream
		defer wg.Done()
		<-halfway
		p.Close()
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() { // subscribers joining, reading a little and leaving
			defer wg.Done()
			var last uint64
			for {
				req := cfpq.Request{Nonterminal: "S"}
				if w == 1 {
					req.Sources = []int{0}
				}
				var s *cfpq.Subscription
				var err error
				if w == 2 {
					s, err = p.SubscribeFrom(ctx, req, last)
				} else {
					s, err = p.Subscribe(ctx, req)
				}
				if err != nil {
					return // the handle was closed
				}
				tryNext(s)
				s.Close()
				seq, seen := uint64(0), map[cfpq.Pair]bool{}
				for b := range s.Batches() {
					if b.Seq <= seq && seq != 0 {
						t.Errorf("subscriber %d: seq %d after %d", w, b.Seq, seq)
					}
					seq, last = b.Seq, b.Seq
					for _, pr := range b.Pairs {
						if seen[pr] {
							t.Errorf("subscriber %d: pair %v delivered twice", w, pr)
						}
						seen[pr] = true
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("subscribers, writer and batches did not finish: deadlock")
	}
}

// TestSubscribeCursorProperty: K subscriptions with random restrictions —
// targets among them that the graph does not hold yet — read at random
// paces beside a writer. Each one reads exactly the restricted delta of
// every update from its start, or, where the window (64 updates) passed
// its position, one empty Resync marker at the head and from there on
// exactly the restricted deltas again. One reader waits until the writer
// is well past the window, so the marker is read at least once.
func TestSubscribeCursorProperty(t *testing.T) {
	ctx := context.Background()
	const updates, k, nodes = 150, 8, 200
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	seed := rng.Int63()
	rng = rand.New(rand.NewSource(seed))
	g := cfpq.NewGraph(0)
	g.AddEdge(0, "a", 1)
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, cfpq.MustParseGrammar("S -> a | a S"))
	if err != nil {
		t.Fatal(err)
	}
	// restriction draws nil (unrestricted), empty, or up to 12 nodes of
	// [0, nodes): the chain ends at updates+1, so some never appear.
	restriction := func() []int {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		out := []int{}
		for range 1 + rng.Intn(12) {
			out = append(out, rng.Intn(nodes))
		}
		return out
	}
	type reader struct {
		req     cfpq.Request
		sub     *cfpq.Subscription
		delay   time.Duration
		batches []cfpq.PairBatch
	}
	readers := make([]*reader, k)
	for i := range readers {
		r := &reader{req: cfpq.Request{Nonterminal: "S", Sources: restriction(), Targets: restriction()}}
		if rng.Intn(2) == 0 {
			r.delay = time.Duration(rng.Intn(300)) * time.Microsecond
		}
		if r.sub, err = p.Subscribe(ctx, r.req); err != nil {
			t.Fatal(err)
		}
		readers[i] = r
	}

	deltas := make([][]cfpq.Pair, 1, updates+1) // by seq
	late := make(chan struct{})
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				<-late
			}
			for b := range r.sub.Batches() {
				r.batches = append(r.batches, b)
				if r.delay > 0 {
					time.Sleep(r.delay)
				}
			}
		}()
	}
	for i := 1; i <= updates; i++ {
		edges := []cfpq.Edge{{From: i, Label: "a", To: i + 1}}
		if rng.Intn(4) == 0 { // a back edge: a cycle, and many pairs at once
			edges = append(edges, cfpq.Edge{From: i + 1, Label: "a", To: rng.Intn(i + 1)})
		}
		info, err := p.AddEdges(ctx, edges...)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Delta.Empty() {
			deltas = append(deltas, info.Delta.Pairs("S"))
		}
		if i == 100 {
			close(late)
		}
	}
	for _, r := range readers {
		r.sub.Close() // what was published before stays readable
	}
	wg.Wait()

	head := uint64(len(deltas) - 1)
	if head <= 100 {
		t.Fatalf("seed %d: %d updates published; the late reader needs the window passed", seed, head)
	}
	resynced := 0
	for i, r := range readers {
		keep := func(pr cfpq.Pair) bool {
			return (r.req.Sources == nil || slices.Contains(r.req.Sources, pr.I)) &&
				(r.req.Targets == nil || slices.Contains(r.req.Targets, pr.J))
		}
		restricted := func(seq uint64) []cfpq.Pair {
			var out []cfpq.Pair
			for _, pr := range deltas[seq] {
				if keep(pr) {
					out = append(out, pr)
				}
			}
			return out
		}
		pos := uint64(0)
		for _, b := range r.batches {
			if b.Resync {
				if len(b.Pairs) != 0 || b.Seq <= pos+64 || b.Seq > head {
					t.Fatalf("seed %d: reader %d (%+v) read a Resync marker %+v at position %d; want an empty one at a head past the window", seed, i, r.req, b, pos)
				}
				resynced++
				pos = b.Seq
				continue
			}
			for s := pos + 1; s < b.Seq; s++ {
				if want := restricted(s); len(want) != 0 {
					t.Fatalf("seed %d: reader %d (%+v) skipped seq %d's %v", seed, i, r.req, s, want)
				}
			}
			if want := restricted(b.Seq); !reflect.DeepEqual(b.Pairs, want) {
				t.Fatalf("seed %d: reader %d (%+v) read %v at seq %d, want %v", seed, i, r.req, b.Pairs, b.Seq, want)
			}
			pos = b.Seq
		}
		for s := pos + 1; s <= head; s++ {
			if want := restricted(s); len(want) != 0 {
				t.Fatalf("seed %d: reader %d (%+v) never read seq %d's %v", seed, i, r.req, s, want)
			}
		}
	}
	if resynced == 0 {
		t.Fatalf("seed %d: no reader read a Resync marker; the late reader should have", seed)
	}
}

// TestPublishAllocatesNothingPerSubscriber: an update's delta is retained
// once for every subscription, so AddEdges beside 16 restricted
// subscriptions allocates no more than beside one.
func TestPublishAllocatesNothingPerSubscriber(t *testing.T) {
	ctx := context.Background()
	allocs := func(subs int) float64 {
		g := cfpq.NewGraph(0)
		g.AddEdge(0, "a", 1)
		p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(ctx, g, cfpq.MustParseGrammar("S -> a | a S"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range subs {
			s, err := p.Subscribe(ctx, cfpq.Request{Nonterminal: "S", Sources: []int{0, i}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
		}
		next := 1
		return testing.AllocsPerRun(50, func() {
			if _, err := p.AddEdges(ctx, cfpq.Edge{From: next, Label: "a", To: next + 1}); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	if one, many := allocs(1), allocs(16); many > one {
		t.Fatalf("AddEdges allocated %.1f times an update beside 16 subscriptions, %.1f beside one", many, one)
	}
}

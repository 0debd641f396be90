package cfpq_test

// Tests of the versioned handle: readers pin a published index version and
// never wait for the writer building the next one.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfpq"
	"cfpq/internal/baseline"
)

// parkedWriter starts p.AddEdges(edges) on its own goroutine with a trace
// hook that parks it after the first fixpoint pass of the update closure.
// It returns once the writer is parked; release lets it finish and returns
// its error. If the caller has not released within the guard, whatever it
// is doing is stuck behind the writer: the guard fails the test and
// releases, so the failure is a message and not a hung process.
func parkedWriter(t *testing.T, add func(ctx context.Context) error) (release func() error) {
	t.Helper()
	parked, resume, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	var once sync.Once
	unpark := func() { once.Do(func() { close(resume) }) }
	ctx := cfpq.WithTraceContext(context.Background(), &cfpq.Trace{Pass: func(ev cfpq.PassEvent) {
		if ev.Phase == "update" && ev.Pass == 1 {
			close(parked)
			<-resume
		}
	}})
	go func() { done <- add(ctx) }()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("the update finished without a fixpoint pass to park in: %v", err)
	}
	guard := time.AfterFunc(30*time.Second, func() {
		t.Error("reads are blocked behind a writer parked mid-closure")
		unpark()
	})
	return func() error {
		guard.Stop()
		unpark()
		return <-done
	}
}

// TestReadsDoNotWaitForTheWriter parks a writer in the middle of its update
// closure — deterministically, on a channel, from the Trace{Pass} hook —
// and requires every read entry point to return meanwhile, answering from
// the version published before the update. At the parent commit the update
// ran under the handle's write lock and every one of these calls deadlocks
// (the guard reports it).
func TestReadsDoNotWaitForTheWriter(t *testing.T) {
	ctx := context.Background()
	gram := cfpq.MustParseGrammar("S -> a S b | a b")
	for _, name := range backendNames {
		be := mustBackend(t, name)
		t.Run(name, func(t *testing.T) {
			g := cfpq.NewGraph(0)
			for i := 0; i < 6; i++ {
				g.AddEdge(i, "a", i+1)
			}
			for i := 6; i < 11; i++ {
				g.AddEdge(i, "b", i+1)
			}
			p, err := cfpq.NewEngine(be).Prepare(ctx, g, gram)
			if err != nil {
				t.Fatal(err)
			}
			reqs := []cfpq.Request{
				{Nonterminal: "S", Output: cfpq.OutputExists, Sources: []int{0}, Targets: []int{12}},
				{Nonterminal: "S", Sources: []int{1, 5}},
				{Nonterminal: "S", Output: cfpq.OutputCount},
			}
			type reads struct {
				Exists  bool
				From    []cfpq.Pair
				Count   int
				Batch   []int
				Index   string // SHA-256 of the WriteIndex image
				Entries int
				Version uint64
			}
			read := func() reads {
				var r reads
				for i, req := range reqs {
					res, err := p.Do(ctx, req)
					if err != nil {
						t.Fatalf("Do(%d): %v", i, err)
					}
					switch i {
					case 0:
						r.Exists = res.Exists
					case 1:
						r.From = res.AllPairs()
					case 2:
						r.Count = res.Count
					}
				}
				for _, br := range p.QueryBatch(ctx, reqs) {
					if br.Err != nil {
						t.Fatalf("QueryBatch: %v", br.Err)
					}
					r.Batch = append(r.Batch, br.Result.Count)
				}
				var buf bytes.Buffer
				if err := p.WriteIndex(&buf); err != nil {
					t.Fatalf("WriteIndex: %v", err)
				}
				r.Index = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
				st := p.Stats()
				r.Entries, r.Version = st.Entries, st.Version
				return r
			}
			before := read()

			release := parkedWriter(t, func(ctx context.Context) error {
				_, err := p.AddEdges(ctx, cfpq.Edge{From: 11, Label: "b", To: 12})
				return err
			})
			during := read()
			if err := release(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(during, before) {
				t.Fatalf("reads beside the parked writer saw an unpublished state:\n%+v\nbefore the update:\n%+v", during, before)
			}
			after := read()
			if !after.Exists || after.Count != before.Count+1 || after.Version != 1 {
				t.Fatalf("after the update: exists(0,12)=%v count=%d version=%d, want true, %d, 1",
					after.Exists, after.Count, after.Version, before.Count+1)
			}
		})
	}
}

// modelBudget makes TestConcurrentVersionsModel keep drawing seeds for this
// long (CI's -race job sets it); the default runs a fixed handful.
var modelBudget = flag.Duration("model-budget", 0, "how long TestConcurrentVersionsModel keeps running fresh seeds (0 = seeds 1–4 only)")

// TestConcurrentVersionsModel races readers, batch readers and a subscriber
// against one writer applying seeded edge batches (some growing the node
// set, some abandoned by a cancelled context and absorbed by the next), and
// checks every observation against baseline.Hellings on the edge set:
//
//   - every single answer equals the relation at some version between the
//     last batch acknowledged before the read and the last one sent by its
//     end;
//   - all answers of one QueryBatch come from one such version;
//   - what the subscriber's Do saw after subscribing plus what it was pushed
//     is the final relation — no pair pushed twice, no push of a pair that
//     was visible before it subscribed, no resync;
//   - the published version number is the number of successful non-empty
//     updates.
//
// Meaningful under -race. A failure names its seed.
func TestConcurrentVersionsModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if *modelBudget > 0 {
		seeds = nil
	}
	deadline := time.Now().Add(*modelBudget)
	for i := 0; i < len(seeds) || (seeds == nil && time.Now().Before(deadline)); i++ {
		seed := time.Now().UnixNano()
		if seeds != nil {
			seed = seeds[i]
		}
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runVersionsModel(t, seed) }) {
			return
		}
	}
}

func runVersionsModel(t *testing.T, seed int64) {
	const (
		nodes   = 10
		steps   = 30 // below the subscription buffer: the subscriber drains at the end
		readers = 2
	)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	gram := cfpq.MustParseGrammar("S -> a S b | a b | S S")
	cnf, err := cfpq.ToCNF(gram)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"a", "b"}
	g := cfpq.NewGraph(nodes)
	for i := 0; i < nodes; i++ {
		g.AddEdge(rng.Intn(nodes), labels[rng.Intn(2)], rng.Intn(nodes))
	}

	// The script and its oracle: rel[v] is the relation a read may see once
	// step v has returned. A step is abandoned by running it under a
	// cancelled context, which only bites when there is something to
	// propagate (fresh edges, or edges an earlier abandoned step left
	// pending); it publishes nothing and the next step absorbs its edges.
	type step struct {
		edges     []cfpq.Edge
		abandoned bool
	}
	script := make([]step, steps+1)
	rel := make([][]cfpq.Pair, steps+1)
	oracle := g.Clone()
	rel[0] = baseline.Hellings(oracle, cnf)["S"]
	n, pending, published := nodes, false, uint64(0)
	for v := 1; v <= steps; v++ {
		st := step{}
		work := pending
		for k := 0; k <= rng.Intn(3); k++ {
			e := cfpq.Edge{From: rng.Intn(n), Label: labels[rng.Intn(2)], To: rng.Intn(n)}
			if rng.Intn(8) == 0 {
				e.To, n = n, n+1
			}
			work = work || e.To >= oracle.Nodes() || !oracle.HasEdge(e.From, e.Label, e.To)
			st.edges = append(st.edges, e)
			oracle.AddEdge(e.From, e.Label, e.To)
		}
		st.abandoned = work && v < steps && rng.Intn(6) == 0
		script[v], rel[v] = st, rel[v-1]
		switch {
		case st.abandoned:
			pending = true
		case work:
			rel[v] = baseline.Hellings(oracle, cnf)["S"]
			pending = false
			published++
		}
	}
	final := rel[steps]
	same := func(a, b []cfpq.Pair) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	from := func(pairs []cfpq.Pair, src int) []cfpq.Pair {
		var out []cfpq.Pair
		for _, pr := range pairs {
			if pr.I == src {
				out = append(out, pr)
			}
		}
		return out
	}

	backends := cfpq.Backends()
	p, err := cfpq.NewEngine(backends[uint64(seed)%uint64(len(backends))]).Prepare(ctx, g, gram)
	if err != nil {
		t.Fatal(err)
	}
	// A read brackets itself with the last step acknowledged before it and
	// the last one sent by its end; someVersion reports whether one version
	// in between answers the way the read was answered.
	var sent, acked atomic.Int64
	someVersion := func(lo, hi int, answers func(v int) bool) bool {
		for v := lo; v <= hi; v++ {
			if answers(v) {
				return true
			}
		}
		return false
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(2)
		go func(r int) { // single reads: each pins its own version
			defer wg.Done()
			for i := 0; !stopped(); i++ {
				src := (r + i) % nodes
				lo := int(acked.Load())
				var answers func(v int) bool
				switch i % 4 {
				case 3:
					// Paths read the pinned version's edge set beside the
					// writer extending it: every witness must be a real
					// i→j walk over edges the script adds at some point.
					dst := (src + i/4) % nodes
					paths := read(t, p, cfpq.Request{
						Nonterminal: "S", Sources: []int{src}, Targets: []int{dst},
						Output: cfpq.OutputPaths, Limit: 3, MaxPathLength: 6,
					})
					for path := range paths.Paths() {
						at := src
						for _, e := range path {
							if e.From != at || !oracle.HasEdge(e.From, e.Label, e.To) {
								t.Errorf("seed %d: read %d: path %v from %d is not a walk in the graph", seed, i, path, src)
								return
							}
							at = e.To
						}
						if at != dst {
							t.Errorf("seed %d: read %d: path %v ends at %d, want %d", seed, i, path, at, dst)
							return
						}
					}
					continue
				case 0:
					all := relationOf(t, p, "S")
					answers = func(v int) bool { return same(all, rel[v]) }
				case 1:
					row := read(t, p, cfpq.Request{Nonterminal: "S", Sources: []int{src}}).AllPairs()
					answers = func(v int) bool { return same(row, from(rel[v], src)) }
				case 2:
					count := countOf(t, p, "S")
					answers = func(v int) bool { return count == len(rel[v]) }
				}
				if hi := int(sent.Load()); !someVersion(lo, hi, answers) {
					t.Errorf("seed %d: read %d (kind %d, source %d) matches no version in [%d,%d]", seed, i, i%4, src, lo, hi)
					return
				}
			}
		}(r)
		go func(r int) { // batches: one pin for all three answers
			defer wg.Done()
			for i := 0; !stopped(); i++ {
				src := (r + 3*i) % nodes
				lo := int(acked.Load())
				res := p.QueryBatch(ctx, []cfpq.Request{
					{Nonterminal: "S"},
					{Nonterminal: "S", Sources: []int{src}},
					{Nonterminal: "S", Output: cfpq.OutputCount},
				})
				hi := int(sent.Load())
				for _, br := range res {
					if br.Err != nil {
						t.Errorf("seed %d: batch: %v", seed, br.Err)
						return
					}
				}
				all, row, count := res[0].Result.AllPairs(), res[1].Result.AllPairs(), res[2].Result.Count
				if !someVersion(lo, hi, func(v int) bool {
					return same(all, rel[v]) && same(row, from(rel[v], src)) && count == len(rel[v])
				}) {
					t.Errorf("seed %d: batch %d: no single version in [%d,%d] gives all three answers", seed, i, lo, hi)
					return
				}
			}
		}(r)
	}

	// The subscriber joins mid-stream: Subscribe, then Do to seed; it drains
	// its buffer once the writer is done.
	type subscriberView struct {
		lo   int // last step acknowledged before Subscribe
		seed []cfpq.Pair
		sub  *cfpq.Subscription
	}
	joinAt := 1 + rng.Intn(steps/2)
	joined := make(chan *subscriberView, 1)
	join := func() {
		view := &subscriberView{lo: int(acked.Load())}
		if view.sub, err = p.Subscribe(ctx, cfpq.Request{Nonterminal: "S"}); err != nil {
			t.Errorf("seed %d: subscribe: %v", seed, err)
			joined <- nil
			return
		}
		view.seed = relationOf(t, p, "S")
		joined <- view
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for v := 1; v <= steps; v++ {
		if v == joinAt {
			go join()
		}
		sent.Store(int64(v))
		stepCtx := ctx
		if script[v].abandoned {
			stepCtx = cancelled
		}
		info, err := p.AddEdges(stepCtx, script[v].edges...)
		if abandoned := err != nil; abandoned != script[v].abandoned || (abandoned && !info.Delta.Empty()) {
			t.Fatalf("seed %d: step %d (scripted abandoned=%v): err = %v, delta empty = %v", seed, v, script[v].abandoned, err, info.Delta.Empty())
		}
		acked.Store(int64(v))
	}
	close(stop)
	wg.Wait()
	view := <-joined

	if got := relationOf(t, p, "S"); !same(got, final) {
		t.Fatalf("seed %d: final relation %v, Hellings %v", seed, got, final)
	}
	if st := p.Stats(); st.Version != published || st.Updates != steps {
		t.Fatalf("seed %d: Stats report version %d after %d updates, want %d published of %d", seed, st.Version, st.Updates, published, steps)
	}
	if view == nil {
		return
	}
	view.sub.Close() // closes Updates; what was buffered stays readable
	have, before, pushed := pairSet(view.seed), pairSet(rel[view.lo]), map[cfpq.Pair]bool{}
	lastSeq := uint64(0)
	for b := range view.sub.Updates() {
		// Sequence numbers count every delta-producing update; the ones
		// that derived no S pair are not delivered, so gaps are expected
		// and lost continuity shows as a Resync marker.
		if b.Resync || b.Seq <= lastSeq {
			t.Fatalf("seed %d: push stream lost continuity at seq %d (after %d, resync=%v)", seed, b.Seq, lastSeq, b.Resync)
		}
		lastSeq = b.Seq
		for _, pr := range b.Pairs {
			if pushed[pr] {
				t.Fatalf("seed %d: pair %v pushed twice", seed, pr)
			}
			if before[pr] {
				t.Fatalf("seed %d: pair %v pushed although it was visible before the subscription (step %d)", seed, pr, view.lo)
			}
			pushed[pr], have[pr] = true, true
		}
	}
	if !equalSets(have, pairSet(final)) {
		t.Fatalf("seed %d: seed ∪ pushes = %v, the final relation is %v", seed, setList(have), final)
	}
}

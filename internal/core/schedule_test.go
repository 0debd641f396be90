package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"cfpq/internal/baseline"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// TestSchedulesAgreeProperty ties the engine's one loop to its references
// on random grammars × random graphs × both backends: the production
// closure, the reference Algorithm1 and the Hellings worklist oracle compute
// the same relations, and the loop — seeded with the initialised index
// (CloseContext) or, as UpdateContext on an empty index, with every edge —
// walks through exactly Algorithm1's states T₀…T_k, pass for pass and with
// the same pass count (both read only the state the previous pass ended
// with), reporting each state's sizes in its trace event.
func TestSchedulesAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cfg := grammar.RandomConfig{
		Nonterminals: 4,
		Terminals:    3,
		Productions:  12,
		MaxBody:      3,
		EpsilonProb:  0.05,
	}
	for trial := 0; trial < 20; trial++ {
		gram := grammar.RandomGrammar(rng, cfg)
		cnf, err := grammar.ToCNF(gram)
		if err != nil {
			t.Fatal(err)
		}
		if cnf.NonterminalCount() == 0 {
			continue
		}
		n := 2 + rng.Intn(10)
		g := graph.Random(rng, n, 3*n, gram.Terminals())
		oracle := baseline.Hellings(g, cnf)
		for _, be := range matrix.Backends() {
			var ref []*Index
			final, refStats := Algorithm1(be, g, cnf, func(_ int, ix *Index) { ref = append(ref, ix.Clone()) })
			e := NewEngine(WithBackend(be))
			prod := e.Init(g, cnf)
			var cold []*Index
			prodStats, err := e.CloseContext(WithTraceContext(context.Background(), &Trace{Pass: func(ev PassEvent) {
				for _, z := range ev.NNZ {
					if z.After != prod.Count(z.Nonterminal) {
						t.Fatalf("trial %d backend %s: event %d reports |R_%s| = %d, the index holds %d",
							trial, be.Name(), ev.Pass, z.Nonterminal, z.After, prod.Count(z.Nonterminal))
					}
				}
				cold = append(cold, prod.Clone())
			}}), prod)
			if err != nil {
				t.Fatal(err)
			}
			if !prod.Equal(final) {
				t.Fatalf("trial %d backend %s: production closure differs from Algorithm1\ngrammar:\n%s",
					trial, be.Name(), gram)
			}
			if len(cold) != len(ref) || prodStats.Iterations != refStats.Iterations {
				t.Fatalf("trial %d backend %s: production closure went through %d states in %d passes, Algorithm1 through %d in %d",
					trial, be.Name(), len(cold), prodStats.Iterations, len(ref), refStats.Iterations)
			}
			for k := range ref {
				if !cold[k].Equal(ref[k]) {
					t.Fatalf("trial %d backend %s: state T%d of the production closure differs from Algorithm1's",
						trial, be.Name(), k)
				}
			}
			for a, nt := range cnf.Names {
				// Hellings reports empty relations as absent.
				if got, want := final.Relation(nt), oracle[nt]; len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d backend %s: R_%s = %v, Hellings %v (nonterminal %d)\ngrammar:\n%s",
						trial, be.Name(), nt, got, want, a, gram)
				}
			}

			ix := e.Init(graph.New(n), cnf)
			var states []*Index
			ctx := WithTraceContext(context.Background(), &Trace{Pass: func(PassEvent) {
				states = append(states, ix.Clone())
			}})
			if _, _, err := e.UpdateContext(ctx, ix, g.Edges()...); err != nil {
				t.Fatal(err)
			}
			if !ix.Equal(final) {
				t.Fatalf("trial %d backend %s: semi-naive closure differs from Algorithm1", trial, be.Name())
			}
			if len(states) == 0 {
				// No edge matched a terminal rule: the update had nothing to
				// seed and fired no event, not even for the empty T₀.
				if !final.Equal(e.Init(graph.New(n), cnf)) {
					t.Fatalf("trial %d backend %s: no update pass fired on a non-empty closure", trial, be.Name())
				}
				continue
			}
			if len(states) != len(ref) {
				t.Fatalf("trial %d backend %s: semi-naive path went through %d states, Algorithm1 through %d",
					trial, be.Name(), len(states), len(ref))
			}
			for k := range ref {
				if !states[k].Equal(ref[k]) {
					t.Fatalf("trial %d backend %s: state T%d of the semi-naive path differs from Algorithm1's",
						trial, be.Name(), k)
				}
			}
		}
	}
}

// collectEvents returns a context whose trace appends every PassEvent
// (with its NNZ slice copied out) to *events.
func collectEvents(events *[]PassEvent) context.Context {
	return WithTraceContext(context.Background(), &Trace{Pass: func(ev PassEvent) {
		ev.NNZ = append([]NNZ(nil), ev.NNZ...)
		*events = append(*events, ev)
	}})
}

// checkChain asserts the event chain of one evaluation: passes numbered
// from 0, every event in the evaluation's one phase, every event's Before
// equal to the previous event's After, and the per-nonterminal deltas
// summing to after − before of the index the evaluation ran on.
func checkChain(t *testing.T, name string, events []PassEvent, phase string, before, after map[string]int) {
	t.Helper()
	if len(events) == 0 {
		t.Fatalf("%s: no events", name)
	}
	sum := map[string]int{}
	for k, ev := range events {
		if ev.Pass != k {
			t.Errorf("%s: event %d numbered %d", name, k, ev.Pass)
		}
		if ev.Phase != phase {
			t.Errorf("%s: event %d has phase %q, want %q", name, k, ev.Phase, phase)
		}
		for a, z := range ev.NNZ {
			prev := before[z.Nonterminal]
			if k > 0 {
				prev = events[k-1].NNZ[a].After
			}
			if z.Before != prev {
				t.Errorf("%s: event %d %s.Before = %d, previous After = %d", name, k, z.Nonterminal, z.Before, prev)
			}
			sum[z.Nonterminal] += z.Delta()
		}
	}
	for nt, n := range after {
		if sum[nt] != n-before[nt] {
			t.Errorf("%s: deltas of %s sum to %d, relation grew by %d", name, nt, sum[nt], n-before[nt])
		}
	}
}

// TestTracePhases pins the phase vocabulary, one phase per evaluation: a
// cold closure says only "full", a source-restricted one only "frontier" —
// also when its frontier reaches every row — an incremental update only
// "update"; and in each the nnz deltas telescope to the bits the evaluation
// added.
func TestTracePhases(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.New(0)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, "a", i+1)
	}
	for i := 6; i < 11; i++ {
		g.AddEdge(i, "b", i+1)
	}
	// A far-away component a single source explores without reaching the rest.
	g.AddEdge(20, "a", 21)
	g.AddEdge(21, "b", 22)
	for _, be := range matrix.Backends() {
		e := NewEngine(WithBackend(be))
		empty := map[string]int{}

		var events []PassEvent
		ix, _, err := e.RunContext(collectEvents(&events), g, cnf)
		if err != nil {
			t.Fatal(err)
		}
		checkChain(t, be.Name()+" cold", events, "full", empty, ix.Counts())

		events = nil
		from, fs, err := e.RunFromContext(collectEvents(&events), g, cnf, []int{20})
		if err != nil || fs.Saturated {
			t.Fatalf("%s: single-source closure: saturated=%v err=%v", be.Name(), fs.Saturated, err)
		}
		checkChain(t, be.Name()+" frontier", events, "frontier", empty, from.Counts())
		if !from.Has("S", 20, 22) {
			t.Errorf("%s: single-source closure missed (20,22)", be.Name())
		}

		events = nil
		all := make([]int, g.Nodes())
		for i := range all {
			all[i] = i
		}
		sat, fs, err := e.RunFromContext(collectEvents(&events), g, cnf, all)
		if err != nil || !fs.Saturated || fs.Frontier != g.Nodes() {
			t.Fatalf("%s: all-sources closure: saturated=%v frontier=%d err=%v", be.Name(), fs.Saturated, fs.Frontier, err)
		}
		if last := events[len(events)-1]; last.Frontier != g.Nodes() {
			t.Errorf("%s: all-sources closure ended with %d of %d rows active", be.Name(), last.Frontier, g.Nodes())
		}
		checkChain(t, be.Name()+" saturated", events, "frontier", empty, sat.Counts())
		if !sat.Equal(ix) {
			t.Errorf("%s: saturated closure differs from the cold one", be.Name())
		}

		events = nil
		before := ix.Counts()
		if _, _, err := e.UpdateContext(collectEvents(&events), ix, graph.Edge{From: 11, Label: "b", To: 12}); err != nil {
			t.Fatal(err)
		}
		checkChain(t, be.Name()+" update", events, "update", before, ix.Counts())
		if ix.Count("S") <= before["S"] {
			t.Errorf("%s: the update derived nothing, the chain check is vacuous", be.Name())
		}
	}
}

// TestUpdateHonoursMemoryBudget: an incremental update that would outgrow
// the engine's budget stops with *MemoryBudgetError before the allocation
// that breaches it. The budgets are taken from the update's own first
// estimate — the index plus the two frontier sets it may allocate: one
// byte less and nothing is allocated or seeded; exactly that much and the
// seed bits land. A sparse first pass no longer fits — besides the seed it
// is charged the column index its products may build, which the budgeted
// index, a Clone, does not hold — so the index keeps the seed (sound, not
// closed) and the returned Delta holds exactly it; a dense bitmap's
// estimate never moves, so a dense update that was let start finishes.
// The budgets come from the clone's own bytes: the closed index it is
// cloned from holds headroom its rows grew into, which the clone drops.
func TestUpdateHonoursMemoryBudget(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> S S | a")
	const n = 200
	g := graph.Chain(n, "a")
	edges := g.Edges()
	last := edges[len(edges)-1]
	partial := graph.New(n)
	for _, ed := range edges[:len(edges)-1] {
		partial.AddEdge(ed.From, ed.Label, ed.To)
	}
	ctx := context.Background()
	for _, be := range matrix.Backends() {
		free := NewEngine(WithBackend(be))
		want, _, _ := free.RunContext(ctx, g, cnf)
		old, _, err := free.RunContext(ctx, partial, cnf)
		if err != nil {
			t.Fatal(err)
		}
		beside := int64(cnf.NonterminalCount()) * be.EmptyBytes(n)
		ix := old.Clone()
		first := ix.Bytes() + 2*beside

		// One byte short of the frontier sets: rejected before they exist.
		stats, delta, err := NewEngine(WithBackend(be), WithMemoryBudget(first-1)).UpdateContext(ctx, ix, last)
		var mbe *MemoryBudgetError
		if !errors.As(err, &mbe) || mbe.BudgetBytes != first-1 || mbe.EstimatedBytes != first {
			t.Fatalf("%s: update under budget %d: err = %v, want *MemoryBudgetError for %d bytes", be.Name(), first-1, err, first)
		}
		if stats.Iterations != 0 || stats.Products != 0 || stats.PeakBytes != first {
			t.Errorf("%s: update rejected at allocation reports %+v", be.Name(), stats)
		}
		if !delta.Empty() || !ix.Equal(old) {
			t.Errorf("%s: update rejected at allocation touched the index (delta %v)", be.Name(), delta.Nonterminals())
		}

		// The frontier sets fit exactly: what the seed adds decides.
		e := NewEngine(WithBackend(be), WithMemoryBudget(first))
		stats, delta, err = e.UpdateContext(ctx, ix, last)
		probe := be.NewMatrix(n)
		probe.Set(0, 0)
		if probe.Bytes() == be.EmptyBytes(n) {
			if err != nil || !ix.Equal(want) {
				t.Errorf("%s: update under the budget its estimate never leaves: err=%v closed=%v", be.Name(), err, ix.Equal(want))
			}
		} else {
			if !errors.As(err, &mbe) || mbe.BudgetBytes != first || mbe.EstimatedBytes <= first {
				t.Fatalf("%s: update under budget %d: err = %v, want *MemoryBudgetError", be.Name(), first, err)
			}
			if stats.Iterations != 0 || stats.Products != 0 {
				t.Errorf("%s: rejected pass was counted: %+v", be.Name(), stats)
			}
			seed := []matrix.Pair{{I: last.From, J: last.To}}
			if got := delta.Pairs("S"); !reflect.DeepEqual(got, seed) {
				t.Errorf("%s: partial delta = %v, want the seed %v", be.Name(), got, seed)
			}
			if !ix.Has("S", last.From, last.To) || ix.Count("S") != old.Count("S")+1 {
				t.Errorf("%s: index holds %d S-pairs after the rejected update, want the old %d plus the seed",
					be.Name(), ix.Count("S"), old.Count("S"))
			}
		}

		// On a fork two versions are live: the same allocation is charged
		// the storage the version forked from does not share on top, and
		// that version stays exactly as it was.
		pristine := old.Clone()
		_, _, err = e.UpdateContext(ctx, old.Fork(), last)
		if forked := old.Bytes() + 3*beside; !errors.As(err, &mbe) || mbe.EstimatedBytes != forked {
			t.Errorf("%s: rejected update on a fork: err = %v, want an estimate of %d", be.Name(), err, forked)
		}
		if !old.Equal(pristine) {
			t.Errorf("%s: a rejected update on a fork changed the version forked from", be.Name())
		}

		// With no budget the same update runs to the cold closure.
		if _, _, err := free.UpdateContext(ctx, old, last); err != nil || !old.Equal(want) {
			t.Errorf("%s: unbudgeted update: err=%v equal=%v", be.Name(), err, old.Equal(want))
		}
	}
}

// TestColdBuildBudgetCountsFrontier: a cold build holds the frontier's two
// matrix sets beside the index for as long as it runs, so a budget between
// the empty index (T) and T + Δ + next rejects it — before any matrix is
// allocated, which on these dimensions would show as megabytes.
func TestColdBuildBudgetCountsFrontier(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	const n = 1 << 13
	g := graph.Chain(n, "a")
	for _, be := range matrix.Backends() {
		one := int64(cnf.NonterminalCount()) * be.EmptyBytes(n)
		for _, budget := range []int64{one, 3*one - 1} {
			e := NewEngine(WithBackend(be), WithMemoryBudget(budget))
			var ix *Index
			var stats Stats
			var err error
			got, _ := allocated(func() { ix, stats, err = e.RunContext(context.Background(), g, cnf) })
			var mbe *MemoryBudgetError
			if !errors.As(err, &mbe) || mbe.BudgetBytes != budget || mbe.EstimatedBytes != 3*one {
				t.Fatalf("%s: cold build under budget %d: err = %v, want *MemoryBudgetError for %d bytes", be.Name(), budget, err, 3*one)
			}
			if ix != nil || stats != (Stats{}) {
				t.Errorf("%s: rejected cold build returned an index or stats %+v", be.Name(), stats)
			}
			if got >= be.EmptyBytes(n) {
				t.Errorf("%s: rejected cold build allocated %d bytes, a matrix is %d", be.Name(), got, be.EmptyBytes(n))
			}
		}
		fits := 3 * int64(cnf.NonterminalCount()) * be.EmptyBytes(64)
		if _, _, err := NewEngine(WithBackend(be), WithMemoryBudget(fits)).RunContext(context.Background(), graph.New(64), cnf); err != nil {
			t.Errorf("%s: cold build of an empty graph under exactly its three empty sets: %v", be.Name(), err)
		}
	}
}

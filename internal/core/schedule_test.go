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

// TestSchedulesAgreeProperty ties the three closure loops core keeps
// together on random grammars × random graphs × all four backends: the
// production in-place closure, the reference Algorithm1 and the Hellings
// worklist oracle compute the same relations, and the semi-naive step — run
// as UpdateContext on an empty index seeded with every edge — walks through
// exactly Algorithm1's states T₀…T_k, pass for pass (both read only the
// state the previous pass ended with).
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
			final, _ := Algorithm1(be, g, cnf, func(_ int, ix *Index) { ref = append(ref, ix.Clone()) })
			prod, _, _ := NewEngine(WithBackend(be)).RunContext(context.Background(), g, cnf)
			if !prod.Equal(final) {
				t.Fatalf("trial %d backend %s: in-place closure differs from Algorithm1\ngrammar:\n%s",
					trial, be.Name(), gram)
			}
			for a, nt := range cnf.Names {
				// Hellings reports empty relations as absent.
				if got, want := final.Relation(nt), oracle[nt]; len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d backend %s: R_%s = %v, Hellings %v (nonterminal %d)\ngrammar:\n%s",
						trial, be.Name(), nt, got, want, a, gram)
				}
			}

			e := NewEngine(WithBackend(be))
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
				// seed and ran no pass, while Algorithm1 still visits its
				// empty T₀ and the one pass that confirms it.
				if anySet(final.mats) {
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
// from 0, phases drawn in order from the allowed sequence (each phase a
// contiguous run, none skipped backwards), every event's Before equal to
// the previous event's After, and the per-nonterminal deltas summing to
// after − before of the index the evaluation ran on.
func checkChain(t *testing.T, name string, events []PassEvent, phases []string, before, after map[string]int) {
	t.Helper()
	if len(events) == 0 {
		t.Fatalf("%s: no events", name)
	}
	at := 0
	sum := map[string]int{}
	for k, ev := range events {
		if ev.Pass != k {
			t.Errorf("%s: event %d numbered %d", name, k, ev.Pass)
		}
		for at < len(phases) && phases[at] != ev.Phase {
			at++
		}
		if at == len(phases) {
			t.Fatalf("%s: event %d has phase %q, want the sequence %v", name, k, ev.Phase, phases)
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
	if events[len(events)-1].Phase != phases[len(phases)-1] {
		t.Errorf("%s: ended in phase %q, want %q", name, events[len(events)-1].Phase, phases[len(phases)-1])
	}
	for nt, n := range after {
		if sum[nt] != n-before[nt] {
			t.Errorf("%s: deltas of %s sum to %d, relation grew by %d", name, nt, sum[nt], n-before[nt])
		}
	}
}

// TestTracePhases pins the phase vocabulary: a cold closure says only
// "full", an unsaturated source-restricted one only "frontier", a saturated
// one "frontier" then "full", an incremental update only "update" — and in
// each the nnz deltas telescope to the bits the evaluation added.
func TestTracePhases(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.New(0)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, "a", i+1)
	}
	for i := 6; i < 11; i++ {
		g.AddEdge(i, "b", i+1)
	}
	// A far-away component a single source can explore without saturating.
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
		checkChain(t, be.Name()+" cold", events, []string{"full"}, empty, ix.Counts())

		events = nil
		from, fs, err := e.RunFromContext(collectEvents(&events), g, cnf, []int{20})
		if err != nil || fs.Saturated {
			t.Fatalf("%s: single-source closure: saturated=%v err=%v", be.Name(), fs.Saturated, err)
		}
		checkChain(t, be.Name()+" frontier", events, []string{"frontier"}, empty, from.Counts())
		if !from.Has("S", 20, 22) {
			t.Errorf("%s: single-source closure missed (20,22)", be.Name())
		}

		events = nil
		all := make([]int, g.Nodes())
		for i := range all {
			all[i] = i
		}
		sat, fs, err := e.RunFromContext(collectEvents(&events), g, cnf, all)
		if err != nil || !fs.Saturated {
			t.Fatalf("%s: all-sources closure: saturated=%v err=%v", be.Name(), fs.Saturated, err)
		}
		checkChain(t, be.Name()+" saturated", events, []string{"frontier", "full"}, empty, sat.Counts())
		if !sat.Equal(ix) {
			t.Errorf("%s: saturated closure differs from the cold one", be.Name())
		}

		events = nil
		before := ix.Counts()
		if _, _, err := e.UpdateContext(collectEvents(&events), ix, graph.Edge{From: 11, Label: "b", To: 12}); err != nil {
			t.Fatal(err)
		}
		checkChain(t, be.Name()+" update", events, []string{"update"}, before, ix.Counts())
		if ix.Count("S") <= before["S"] {
			t.Errorf("%s: the update derived nothing, the chain check is vacuous", be.Name())
		}
	}
}

// TestUpdateHonoursMemoryBudget: an incremental update whose semi-naive
// pass would outgrow the engine's budget stops with *MemoryBudgetError
// before allocating it. The index keeps the seed bits (sound, not closed)
// and the returned Delta holds exactly those.
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
	for _, be := range matrix.Backends() {
		want, cold, _ := NewEngine(WithBackend(be)).RunContext(context.Background(), g, cnf)
		// The finished closure fits, the update's extra frontier matrices
		// on top of the nearly finished one do not.
		e := NewEngine(WithBackend(be), WithMemoryBudget(cold.PeakBytes))
		ix, _, err := e.RunContext(context.Background(), partial, cnf)
		if err != nil {
			t.Fatalf("%s: cold build under its own peak: %v", be.Name(), err)
		}
		old := ix.Clone()

		stats, delta, err := e.UpdateContext(context.Background(), ix, last)
		var mbe *MemoryBudgetError
		if !errors.As(err, &mbe) {
			t.Fatalf("%s: update under budget %d: err = %v, want *MemoryBudgetError", be.Name(), cold.PeakBytes, err)
		}
		if mbe.BudgetBytes != cold.PeakBytes || mbe.EstimatedBytes <= cold.PeakBytes {
			t.Errorf("%s: error payload %+v", be.Name(), mbe)
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

		// On a fork two versions are live: the same rejected pass is charged
		// the storage the version forked from does not share on top, and
		// that version stays exactly as it was.
		beside := int64(cnf.NonterminalCount()) * be.EmptyBytes(n)
		pristine := old.Clone()
		_, _, err = e.UpdateContext(context.Background(), old.Fork(), last)
		var forked *MemoryBudgetError
		if !errors.As(err, &forked) || forked.EstimatedBytes != mbe.EstimatedBytes+beside {
			t.Errorf("%s: rejected update on a fork: err = %v, want an estimate of %d + %d", be.Name(), err, mbe.EstimatedBytes, beside)
		}
		if !old.Equal(pristine) {
			t.Errorf("%s: a rejected update on a fork changed the version forked from", be.Name())
		}

		// With no budget the same update runs to the cold closure.
		free := NewEngine(WithBackend(be))
		if _, _, err := free.UpdateContext(context.Background(), old, last); err != nil || !old.Equal(want) {
			t.Errorf("%s: unbudgeted update: err=%v equal=%v", be.Name(), err, old.Equal(want))
		}
	}
}

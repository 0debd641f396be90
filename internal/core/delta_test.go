package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// coldUpdate closes g by the semi-naive path alone: UpdateContext on an
// empty index over g's node range, seeded with every edge. The whole
// initialised index is the first frontier, so the shared step runs on
// full-size frontiers rather than the few bits of a typical patch.
func coldUpdate(t *testing.T, e *Engine, g *graph.Graph, cnf *grammar.CNF) (*Index, Stats, *Delta) {
	t.Helper()
	ix := e.Init(graph.New(g.Nodes()), cnf)
	stats, delta, err := e.UpdateContext(context.Background(), ix, g.Edges()...)
	if err != nil {
		t.Fatal(err)
	}
	return ix, stats, delta
}

func TestDeltaIterationMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	grams := []*grammar.CNF{
		grammar.MustParseCNF("S -> a S b | a b"),
		grammar.MustParseCNF(paperCNF),
		grammar.MustParseCNF("S -> S S | a"),
	}
	labels := []string{"a", "b", "subClassOf", "subClassOf_r", "type", "type_r"}
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(15)
		g := graph.Random(rng, n, 3*n, labels)
		for gi, cnf := range grams {
			ref, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
			for _, be := range matrix.Backends() {
				ix, _, delta := coldUpdate(t, NewEngine(WithBackend(be)), g, cnf)
				for a := 0; a < cnf.NonterminalCount(); a++ {
					nt := cnf.Names[a]
					if !reflect.DeepEqual(ix.Relation(nt), ref.Relation(nt)) {
						t.Fatalf("trial %d grammar %d backend %s: semi-naive closure disagrees on R_%s",
							trial, gi, be.Name(), nt)
					}
					// Starting from nothing, everything is newly derived.
					if !reflect.DeepEqual(delta.Pairs(nt), ref.Relation(nt)) {
						t.Fatalf("trial %d grammar %d backend %s: delta of R_%s is not the whole relation",
							trial, gi, be.Name(), nt)
					}
				}
			}
		}
	}
}

func TestDeltaIterationPaperExampleRelations(t *testing.T) {
	cnf := grammar.MustParseCNF(paperCNF)
	ix, stats, _ := coldUpdate(t, NewEngine(), paperGraph(), cnf)
	want := []matrix.Pair{{I: 0, J: 0}, {I: 0, J: 2}, {I: 1, J: 2}}
	if got := ix.Relation("S"); !reflect.DeepEqual(got, want) {
		t.Errorf("R_S = %v, want %v", got, want)
	}
	if stats.Iterations == 0 || stats.Products == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestDeltaIsTheRelationDiffProperty holds UpdateContext's Delta to its
// definition on random grammars × random graphs × both backends. A closed
// index over a prefix of the edges takes the rest — now and then with an
// edge that grows the node range — in one update, and for every
// non-terminal Delta.Pairs is row-major, duplicate-free and exactly R after
// the update minus R before it. An update cancelled after a random number
// of passes (a trace hook cancels it) or stopped by a random memory budget
// returns exactly the pairs that landed in its index; its retry, run as a
// serving layer runs one — on another fork of the index it started from —
// returns the whole diff: every pair of the partial Delta, and the pairs
// the partial update never derived. ApplyContext, the update that collects
// no Delta, leaves an index bit-identical (its encoded bytes) to
// UpdateContext's after the same passes.
func TestDeltaIsTheRelationDiffProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	cfg := grammar.RandomConfig{Nonterminals: 4, Terminals: 3, Productions: 12, MaxBody: 3, EpsilonProb: 0.05}
	ctx := context.Background()
	partial := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		gram := grammar.RandomGrammar(rng, cfg)
		cnf, err := grammar.ToCNF(gram)
		if err != nil {
			t.Fatal(err)
		}
		if cnf.NonterminalCount() == 0 {
			continue
		}
		n := 2 + rng.Intn(12)
		edges := graph.Random(rng, n, 3*n, gram.Terminals()).Edges()
		if rng.Intn(3) == 0 {
			edges = append(edges, graph.Edge{From: rng.Intn(n), Label: gram.Terminals()[0], To: n})
		}
		cut := rng.Intn(len(edges) + 1)
		prefix := graph.New(n)
		for _, ed := range edges[:cut] {
			prefix.AddEdge(ed.From, ed.Label, ed.To)
		}
		tail := edges[cut:]
		for _, be := range matrix.Backends() {
			name := func(what string) string { return fmt.Sprintf("trial %d %s %s", trial, be.Name(), what) }
			e := NewEngine(WithBackend(be))
			base, _, err := e.RunContext(ctx, prefix, cnf)
			if err != nil {
				t.Fatal(err)
			}
			final := base.Clone()
			stats, delta, err := e.UpdateContext(ctx, final, tail...)
			if err != nil {
				t.Fatal(err)
			}
			checkDelta(t, name("update"), base, final, delta)
			applied := base.Clone()
			applyStats, err := e.ApplyContext(ctx, applied, tail...)
			if err != nil || applyStats.Iterations != stats.Iterations || applyStats.Products != stats.Products {
				t.Fatalf("%s: ApplyContext ran %+v (err %v), UpdateContext %+v", name("apply"), applyStats, err, stats)
			}
			var want, got bytes.Buffer
			if _, err := final.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if _, err := applied.WriteTo(&got); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: ApplyContext left an index that encodes differently (err %v)", name("apply"), err)
			}

			// Stopped part-way: cancelled after pass k (the seed is pass 0),
			// or over a budget between the update's first estimate and its
			// peak.
			k := rng.Intn(stats.Iterations + 1)
			cctx, cancel := context.WithCancel(ctx)
			cctx = WithTraceContext(cctx, &Trace{Pass: func(ev PassEvent) {
				if ev.Pass == k {
					cancel()
				}
			}})
			_, _, err = NewEngine(WithBackend(be), WithMemoryBudget(1)).UpdateContext(ctx, base.Fork(), tail...)
			var mbe *MemoryBudgetError
			if len(tail) > 0 && !errors.As(err, &mbe) {
				t.Fatalf("%s: update under a 1-byte budget: err = %v", name("budget probe"), err)
			}
			type stop struct {
				kind string
				ctx  context.Context
				e    *Engine
			}
			stops := []stop{{"cancelled update", cctx, e}}
			if mbe != nil && stats.PeakBytes > mbe.EstimatedBytes {
				budget := mbe.EstimatedBytes + rng.Int63n(stats.PeakBytes-mbe.EstimatedBytes)
				stops = append(stops, stop{"over-budget update", ctx, NewEngine(WithBackend(be), WithMemoryBudget(budget))})
			}
			for _, stop := range stops {
				landed := base.Fork()
				_, part, err := stop.e.UpdateContext(stop.ctx, landed, tail...)
				if err != nil {
					partial[stop.kind]++
				} else if !landed.Equal(final) {
					t.Fatalf("%s: ran to the end but did not close", name(stop.kind))
				}
				checkDelta(t, name(stop.kind), base, landed, part)
				retried := base.Fork()
				_, retry, err := e.UpdateContext(ctx, retried, tail...)
				if err != nil || !retried.Equal(final) {
					t.Fatalf("%s: the retry did not close (err %v)", name(stop.kind), err)
				}
				checkDelta(t, name(stop.kind+" retry"), base, retried, retry)
				for _, nt := range cnf.Names {
					if stray := diff(part.Pairs(nt), retry.Pairs(nt)); stray != nil {
						t.Fatalf("%s: R_%s: the partial Delta holds %v, which the retry's lacks", name(stop.kind), nt, stray)
					}
				}
			}
			cancel()
		}
	}
	t.Logf("stopped part-way: %v", partial)
	for _, kind := range []string{"cancelled update", "over-budget update"} {
		if partial[kind] == 0 {
			t.Errorf("no %s stopped part-way: that half of the property is vacuous", kind)
		}
	}
}

// checkDelta asserts that d is exactly after \ before, per non-terminal,
// each list row-major and duplicate-free.
func checkDelta(t *testing.T, name string, before, after *Index, d *Delta) {
	t.Helper()
	if d.Nodes() != after.Nodes() {
		t.Fatalf("%s: Delta over %d nodes, the index has %d", name, d.Nodes(), after.Nodes())
	}
	var gained []string
	for _, nt := range before.cnf.Names {
		got := d.Pairs(nt)
		for i := 1; i < len(got); i++ {
			if p, q := got[i-1], got[i]; p.I > q.I || p.I == q.I && p.J >= q.J {
				t.Fatalf("%s: R_%s delta is not row-major and duplicate-free at %d: %v then %v", name, nt, i, p, q)
			}
		}
		want := diff(after.Relation(nt), before.Relation(nt))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: R_%s delta = %v, want after − before = %v", name, nt, got, want)
		}
		if want != nil {
			gained = append(gained, nt)
		}
	}
	if !reflect.DeepEqual(d.Nonterminals(), gained) || d.Empty() != (gained == nil) {
		t.Fatalf("%s: Delta names %v (empty %v), the relations that grew are %v", name, d.Nonterminals(), d.Empty(), gained)
	}
}

// diff returns the pairs of a not in b, in a's order; nil when none.
func diff(a, b []matrix.Pair) []matrix.Pair {
	in := make(map[matrix.Pair]bool, len(b))
	for _, p := range b {
		in[p] = true
	}
	var out []matrix.Pair
	for _, p := range a {
		if !in[p] {
			out = append(out, p)
		}
	}
	return out
}

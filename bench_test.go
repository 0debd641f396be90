// Package cfpq's top-level benchmarks regenerate the paper's evaluation
// with the standard Go benchmarking harness: one benchmark tree per table,
// one sub-benchmark per (ontology, implementation) cell.
//
//	go test -bench BenchmarkTable1 -benchmem        # Table 1 (Query 1)
//	go test -bench BenchmarkTable2 -benchmem        # Table 2 (Query 2)
//
// For the formatted tables in the paper's layout (with #results columns,
// result-agreement checking and the ablations), run ./cmd/cfpq-bench
// instead; BENCH_paper.json is one committed run of it.
//
// This file is an external test package: internal/bench evaluates through
// the public cfpq API, so an in-package test would be an import cycle.
package cfpq_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cfpq"
	"cfpq/internal/bench"
	"cfpq/internal/dataset"
)

// benchTable runs every (graph, implementation) cell of one paper table.
// The paper omits the dense implementation on g1–g3; so do we.
func benchTable(b *testing.B, query int) {
	impls := bench.Implementations(query)
	for _, d := range dataset.Graphs() {
		g := d.Build()
		for _, impl := range impls {
			if impl.SkipSynthetic && d.Synthetic {
				continue
			}
			name := fmt.Sprintf("%s/%s", d.Name, impl.Name)
			b.Run(name, func(b *testing.B) {
				results := 0
				for i := 0; i < b.N; i++ {
					var err error
					if results, err = impl.Run(b.Context(), g); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(results), "results")
			})
		}
	}
}

// BenchmarkTable1 regenerates Table 1: Query 1 (same layer, Figure 10
// grammar) over the 14 dataset graphs × {GLL, dGPU, sCPU, sGPU}.
func BenchmarkTable1(b *testing.B) { benchTable(b, 1) }

// BenchmarkTable2 regenerates Table 2: Query 2 (adjacent layers, Figure 11
// grammar) over the same graphs and implementations.
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }

// benchTraceGraph builds a chain graph whose closure takes several passes,
// so the per-pass trace overhead (or its absence) is measurable.
func benchTraceGraph() (*cfpq.Graph, *cfpq.Grammar) {
	n := 256
	g := cfpq.NewGraph(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, "a", v+1)
		g.AddEdge(v+1, "b", v)
	}
	return g, cfpq.MustParseGrammar("S -> a S b | a b")
}

// BenchmarkEvaluateTraceOff is the untraced baseline for the pair below.
// Compare allocs/op against BenchmarkEvaluateTraceOn: the disabled trace
// path must add no allocations to the evaluation.
func BenchmarkEvaluateTraceOff(b *testing.B) {
	g, gram := benchTraceGraph()
	eng := cfpq.NewEngine(cfpq.Sparse)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Output: cfpq.OutputCount}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateTraceOn runs the same evaluation with a per-pass trace
// collecting events, to price the enabled path.
func BenchmarkEvaluateTraceOn(b *testing.B) {
	g, gram := benchTraceGraph()
	events := 0
	eng := cfpq.NewEngine(cfpq.Sparse)
	ctx := cfpq.WithTraceContext(context.Background(), &cfpq.Trace{Pass: func(cfpq.PassEvent) { events++ }})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Output: cfpq.OutputCount}); err != nil {
			b.Fatal(err)
		}
	}
	if b.N > 0 && events == 0 {
		b.Fatal("tracer fired no events")
	}
}

// BenchmarkPreparedQueryBatch prices QueryBatch on funding under Query 1:
// batches of 8, 64 and 1000 one-source pairs requests, answered from the
// cached index of one Prepared handle.
func BenchmarkPreparedQueryBatch(b *testing.B) {
	d, _ := dataset.ByName("funding")
	g := d.Build()
	p, err := cfpq.NewEngine(cfpq.Sparse).Prepare(context.Background(), g, dataset.Query1())
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{8, 64, 1000} {
		reqs := make([]cfpq.Request, size)
		for i := range reqs {
			reqs[i] = cfpq.Request{Nonterminal: "S", Sources: []int{i % g.Nodes()}}
		}
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range p.QueryBatch(context.Background(), reqs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// subClassOfBatches returns next, which yields one batch as the serving
// benchmark's writer sends it: a seeded random subClassOf edge between two
// existing nodes of g that no earlier batch drew, plus its inverse.
func subClassOfBatches(g *cfpq.Graph) (next func() []cfpq.Edge) {
	rng := rand.New(rand.NewSource(1))
	seen := g.Clone()
	return func() []cfpq.Edge {
		for {
			x, y := rng.Intn(g.Nodes()), rng.Intn(g.Nodes())
			if x == y || seen.HasEdge(x, "subClassOf", y) {
				continue
			}
			seen.AddEdge(x, "subClassOf", y)
			return []cfpq.Edge{{From: x, Label: "subClassOf", To: y}, {From: y, Label: "subClassOf_r", To: x}}
		}
	}
}

// g3Query1 returns g3, Query 1 in CNF, and its index.
func g3Query1(b *testing.B, eng *cfpq.Engine) (*cfpq.Graph, *cfpq.CNF, *cfpq.Index) {
	d, _ := dataset.ByName("g3")
	g := d.Build()
	cnf, err := cfpq.ToCNF(dataset.Query1())
	if err != nil {
		b.Fatal(err)
	}
	ix, _, err := eng.Evaluate(context.Background(), g, cnf)
	if err != nil {
		b.Fatal(err)
	}
	return g, cnf, ix
}

// BenchmarkUpdateOneEdge prices one serving write in process: a
// subClassOfBatches batch through Prepared.AddEdges on g3 under Query 1,
// which forks the index, propagates the two edges and hands back the
// update's Delta. The handle keeps every batch, as a server does.
func BenchmarkUpdateOneEdge(b *testing.B) {
	ctx := context.Background()
	eng := cfpq.NewEngine(cfpq.Sparse)
	g, cnf, ix := g3Query1(b, eng)
	p, err := eng.PrepareFromIndex(g, cnf, ix)
	if err != nil {
		b.Fatal(err)
	}
	next := subClassOfBatches(g)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := p.AddEdges(ctx, next()...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddEdgesTail prices one large batch with its Delta: a fresh
// handle over g3's Query 1 index takes 880 subClassOfBatches batches, 1760
// edges, in one AddEdges (which also copies the graph, as a handle's first
// write does).
func BenchmarkAddEdgesTail(b *testing.B) {
	ctx := context.Background()
	eng := cfpq.NewEngine(cfpq.Sparse)
	g, cnf, ix := g3Query1(b, eng)
	next := subClassOfBatches(g)
	var tail []cfpq.Edge
	for len(tail) < 1760 {
		tail = append(tail, next()...)
	}
	b.ReportAllocs()
	for b.Loop() {
		p, err := eng.PrepareFromIndex(g, cnf, ix)
		if err != nil {
			b.Fatal(err)
		}
		if info, err := p.AddEdges(ctx, tail...); err != nil || info.Delta.Empty() {
			b.Fatalf("AddEdges: err %v, empty delta %v", err, info.Delta.Empty())
		}
	}
}

// BenchmarkWarmStartTail prices what a warm start pays for the WAL tail its
// index file does not cover: LoadIndex, then one Update over a tail of k
// subClassOfBatches batches, on g3 under Query 1. The cost grows faster than
// k, so a writer that gets more written between saves lengthens a recovery
// by more than it wrote. The checkpointed cases take the same k batches one
// at a time into a handle whose index is saved again whenever the pairs
// derived since the last save pass a quarter of the saved file's, as
// cfpqd's checkpoint does, and price loading the last file and replaying
// the batches after it: their time follows the index's size (reported as
// file-pairs), which the k batches grow, not the length of the tail.
func BenchmarkWarmStartTail(b *testing.B) {
	ctx := context.Background()
	eng := cfpq.NewEngine(cfpq.Sparse)
	g, cnf, ix := g3Query1(b, eng)
	var file bytes.Buffer
	if err := cfpq.SaveIndex(&file, ix); err != nil {
		b.Fatal(err)
	}
	ks := []int{250, 500, 1000, 2000}
	replay := func(name string, file []byte, pairs int, tail []cfpq.Edge) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ix, err := eng.LoadIndex(bytes.NewReader(file), cnf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Update(ctx, ix, tail...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pairs), "file-pairs")
			b.ReportMetric(float64(len(tail)/2), "tail-batches")
		})
	}
	built := 0
	for _, c := range ix.Counts() {
		built += c
	}
	next := subClassOfBatches(g)
	var tail []cfpq.Edge
	for _, k := range ks {
		for len(tail) < 2*k {
			tail = append(tail, next()...)
		}
		replay(fmt.Sprint(k), file.Bytes(), built, tail[:2*k])
	}

	p, err := eng.PrepareFromIndex(g, cnf, ix)
	if err != nil {
		b.Fatal(err)
	}
	var saved []byte
	var since []cfpq.Edge
	derived, filed := 0, 0
	save := func() {
		var buf bytes.Buffer
		if err := p.WriteIndex(&buf); err != nil {
			b.Fatal(err)
		}
		saved, since, derived, filed = buf.Bytes(), nil, 0, p.Stats().Entries
	}
	save()
	next, batches := subClassOfBatches(g), 0
	for _, k := range ks {
		for ; batches < k; batches++ {
			batch := next()
			info, err := p.AddEdges(ctx, batch...)
			if err != nil {
				b.Fatal(err)
			}
			since = append(since, batch...)
			if derived += info.Delta.Len(); derived > filed/4 {
				save()
			}
		}
		replay(fmt.Sprintf("checkpointed-%d", k), saved, filed, since)
	}
}

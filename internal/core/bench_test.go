package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cfpq/internal/baseline"
	"cfpq/internal/dataset"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/graphgen"
	"cfpq/internal/matrix"
)

// benchInput builds a reproducible random graph and the Dyck grammar.
func benchInput(n int) (*graph.Graph, *grammar.CNF) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Random(rng, n, 4*n, []string{"a", "b"})
	return g, grammar.MustParseCNF("S -> a S b | a b")
}

// BenchmarkClosureBackends compares the full Algorithm 1 closure across
// matrix backends on random graphs.
func BenchmarkClosureBackends(b *testing.B) {
	for _, n := range []int{100, 400} {
		g, cnf := benchInput(n)
		for _, be := range matrix.Backends() {
			b.Run(fmt.Sprintf("%s/n=%d", be.Name(), n), func(b *testing.B) {
				e := NewEngine(WithBackend(be))
				for i := 0; i < b.N; i++ {
					e.RunContext(context.Background(), g, cnf)
				}
			})
		}
	}
}

// BenchmarkClosureDeepChain closes graphgen's chain a^(n−513) b^512 under
// S → a S b | a b at two sizes: 1024 passes either way, each deriving one
// pair. A pass that costs what its Δ holds takes the same median µs/pass
// at both sizes; what still grows with n is the evaluation's setup (the
// frontier sets' row headers, the column index of T_a), in ns/op only.
func BenchmarkClosureDeepChain(b *testing.B) {
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	for _, n := range []int{10_000, 100_000} {
		g, err := graphgen.Generate(graphgen.Spec{Kind: graphgen.KindChain, Nodes: n, Depth: 512})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var passes []time.Duration
			e := NewEngine(WithTracer(&Trace{Pass: func(ev PassEvent) {
				if ev.Pass > 0 {
					passes = append(passes, ev.Duration)
				}
			}}))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix := e.Init(g, cnf)
				b.StartTimer()
				if _, err := e.CloseContext(context.Background(), ix); err != nil {
					b.Fatal(err)
				}
			}
			slices.Sort(passes)
			b.ReportMetric(float64(len(passes))/float64(b.N), "passes")
			b.ReportMetric(float64(passes[len(passes)/2].Nanoseconds())/1e3, "µs/pass")
		})
	}
}

// BenchmarkIterationSchedule is the ablation bench for the paper-literal
// snapshot loop (Algorithm1) versus the production semi-naive loop.
func BenchmarkIterationSchedule(b *testing.B) {
	g, cnf := benchInput(300)
	b.Run("semi-naive", func(b *testing.B) {
		e := NewEngine(WithBackend(matrix.Sparse()))
		for i := 0; i < b.N; i++ {
			e.RunContext(context.Background(), g, cnf)
		}
	})
	b.Run("algorithm1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Algorithm1(matrix.Sparse(), g, cnf, nil)
		}
	})
}

// BenchmarkAgainstBaselines pits the matrix engine against the Hellings
// worklist and GLL baselines on the same input.
func BenchmarkAgainstBaselines(b *testing.B) {
	g, cnf := benchInput(200)
	gram := cnf.Grammar()
	b.Run("matrix-sparse", func(b *testing.B) {
		e := NewEngine(WithBackend(matrix.Sparse()))
		for i := 0; i < b.N; i++ {
			e.RunContext(context.Background(), g, cnf)
		}
	})
	b.Run("hellings", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.Hellings(g, cnf)
		}
	})
	b.Run("gll", func(b *testing.B) {
		gll := baseline.NewGLL(gram)
		for i := 0; i < b.N; i++ {
			gll.Relation(g, "S")
		}
	})
}

// BenchmarkSinglePathClosure measures the Section 5 length-annotated
// closure.
func BenchmarkSinglePathClosure(b *testing.B) {
	g, cnf := benchInput(150)
	for i := 0; i < b.N; i++ {
		NewEngine().SinglePathContext(context.Background(), g, cnf)
	}
}

// BenchmarkPathExtraction measures witness extraction amortised over all
// pairs of the relation.
func BenchmarkPathExtraction(b *testing.B) {
	g, cnf := benchInput(150)
	px, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
	rel := px.Relation("S")
	if len(rel) == 0 {
		b.Skip("empty relation")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp := rel[i%len(rel)]
		if _, ok := px.Path("S", lp.I, lp.J); !ok {
			b.Fatal("missing path")
		}
	}
}

// coldWideCases are the cold builds of the end-to-end benchmark's
// cold_wide workload, built in process: graphgen's 4096-node grid and
// seeded 10⁵-node scale-free graph under S → a S b | a b, and the paper's
// g3 under Query 1.
func coldWideCases(tb testing.TB) []struct {
	name string
	g    *graph.Graph
	cnf  *grammar.CNF
} {
	dyck := grammar.MustParseCNF("S -> a S b | a b")
	grid, err := graphgen.Generate(graphgen.Spec{Kind: graphgen.KindGrid, Nodes: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	sf, err := graphgen.Generate(graphgen.Spec{Kind: graphgen.KindScaleFree, Nodes: 100_000, Degree: 3, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	g3, ok := dataset.ByName("g3")
	if !ok {
		tb.Fatal("no g3 dataset")
	}
	return []struct {
		name string
		g    *graph.Graph
		cnf  *grammar.CNF
	}{
		{"grid4096", grid, dyck},
		{"sf100k", sf, dyck},
		{"g3q1", g3.Build(), grammar.MustCNF(dataset.Query1())},
	}
}

// BenchmarkColdWide measures, per cold_wide case on the sparse backend, a
// cold RunContext, the index's CFPQIDX4 encode, and its in-place decode
// with DecodeIndex. The encode streams into io.Discard: a server streams it into
// the index file and buffers none of it, so the encode's own cost is what
// a cold build adds. Run with -benchmem: the allocation columns are what a
// cold build costs the server's heap.
func BenchmarkColdWide(b *testing.B) {
	ctx := context.Background()
	e := NewEngine()
	for _, c := range coldWideCases(b) {
		b.Run("run/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.RunContext(ctx, c.g, c.cnf); err != nil {
					b.Fatal(err)
				}
			}
		})
		ix, _, err := e.RunContext(ctx, c.g, c.cnf)
		if err != nil {
			b.Fatal(err)
		}
		var file bytes.Buffer
		if _, err := ix.WriteTo(&file); err != nil {
			b.Fatal(err)
		}
		b.Run("write/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(file.Len()), "file_B")
			for i := 0; i < b.N; i++ {
				if _, err := ix.WriteTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("read/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeIndex(file.Bytes(), c.cnf, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package server

import (
	"fmt"
	"testing"

	"cfpq/internal/graphgen"
	"cfpq/internal/store"
)

// BenchmarkFoldCheckpoint prices a size-triggered WAL fold on a 10⁵-node
// scale-free graph (graphgen, degree 3, seed 1) whose index under
// S -> a S b | a b is built, with fsync on, as cfpqd runs:
//
//   - batch: one AddEdges batch of one edge that takes the WAL past
//     CompactBytes, so that its request folds the WAL (and saves the
//     graph's built index beside the fresh snapshot) before it returns;
//   - restart: store.Open and AttachStore after those folds, which warm
//     start the index from its saved file.
func BenchmarkFoldCheckpoint(b *testing.B) {
	g, err := graphgen.Generate(graphgen.Spec{Kind: graphgen.KindScaleFree, Nodes: 100_000, Degree: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	open := func() (*Service, *store.Store) {
		st, err := store.Open(dir, store.Options{CompactBytes: 1})
		if err != nil {
			b.Fatal(err)
		}
		s := New()
		if err := s.AttachStore(ctx, st); err != nil {
			b.Fatal(err)
		}
		return s, st
	}
	s, st := open()
	if err := s.RegisterGraph("g", g, nil); err != nil {
		b.Fatal(err)
	}
	if err := s.RegisterGrammar("q", "S -> a S b | a b"); err != nil {
		b.Fatal(err)
	}
	if _, err := count(ctx, s, Target{Graph: "g", Grammar: "q"}, "S"); err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		i := 0
		for b.Loop() {
			i++
			if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: fmt.Sprint("n", i), Label: "a", To: "0"}}); err != nil {
				b.Fatal(err)
			}
		}
		if folds := st.Stats().Compactions; folds != int64(i) {
			b.Fatalf("%d batches past CompactBytes folded %d times", i, folds)
		}
	})
	st.Close()
	b.Run("restart", func(b *testing.B) {
		for b.Loop() {
			s, st := open()
			st.Close()
			if n := s.obs.warmStarts.Value(); n != 1 {
				b.Fatalf("the restart warm-started %d indexes, want 1", n)
			}
		}
	})
}

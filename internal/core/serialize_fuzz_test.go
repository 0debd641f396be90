// Native fuzz target for the index deserialiser — the bytes a warm start
// trusts. Gated on go1.18 like the rest of the fuzz suite; under plain
// `go test` only the seed corpus runs.
//
// Run with:
//
//	go test -fuzz=FuzzReadIndex -fuzztime=30s ./internal/core

//go:build go1.18

package core

import (
	"bytes"
	"context"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// FuzzReadIndex throws arbitrary bytes at ReadIndex and checks it never
// panics or over-allocates (the MaxIndexNodes guard), and that accepted
// inputs are genuinely well-formed: re-serialising the accepted index and
// re-reading it reproduces identical relations.
func FuzzReadIndex(f *testing.F) {
	// Tighten the allocation guard: the default 4M-node bound is safe but
	// makes header-mutating executions allocate hundreds of MB each,
	// strangling the fuzzer's throughput without exercising anything new.
	MaxIndexNodes = 1 << 12
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	// Seeds: a real CFPQIDX2 image, its truncation, a CFPQIDX1 image
	// (an unsupported format that must be rejected cleanly), and garbage.
	g := graph.New(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-3])
	legacy := append([]byte("CFPQIDX1"), good[len(indexMagic)+2+len("sparse"):]...)
	f.Add(legacy)
	f.Add([]byte("CFPQIDX2 garbage follows the magic"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Read with an explicit sparse backend: the fuzzer controls the
		// recorded backend name, and a dense materialisation's n×n/8
		// allocation is the caller's informed choice, not a safe default
		// for untrusted bytes.
		got, err := ReadIndex(bytes.NewReader(data), cnf, matrix.Sparse())
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("re-serialising accepted index: %v", err)
		}
		again, err := ReadIndex(bytes.NewReader(out.Bytes()), cnf, matrix.Sparse())
		if err != nil {
			t.Fatalf("re-reading re-serialised index: %v", err)
		}
		if !got.Equal(again) {
			t.Fatal("round trip of accepted index changed relations")
		}
	})
}

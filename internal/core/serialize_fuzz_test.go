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
	"errors"
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
	// Seeds: real CFPQIDX4 images (recorded sparse and dense), truncations,
	// a CFPQIDX1, a CFPQIDX2 and a CFPQIDX3 image (formats no longer read,
	// which must be rejected cleanly), garbage, and images that break one
	// rule each of the strict decoder.
	g := graph.New(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	g.AddEdge(0, "a", 3)
	g.AddEdge(3, "b", 4)
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, cut := range []int{1, 3, len(good) / 2} {
		f.Add(good[:len(good)-cut])
	}
	legacy := append([]byte("CFPQIDX1"), good[len(indexMagic)+2+len("sparse"):]...)
	f.Add(legacy)
	f.Add([]byte("CFPQIDX4 garbage follows the magic"))
	// A repeated column (a zero gap) and one past the nodes: WriteTo never
	// writes either, and ReadIndex must refuse both.
	for name, edit := range map[string]func(gaps []byte){
		"repeated":       func(gaps []byte) { gaps[1] = 0 },
		"past the nodes": func(gaps []byte) { gaps[0] = 0x7f },
	} {
		bad := bytes.Clone(good)
		edit(relationColumns(f, bad, "S"))
		if _, err := ReadIndex(bytes.NewReader(bad), cnf, matrix.Sparse()); err == nil {
			f.Fatalf("a column %s was accepted", name)
		}
		f.Add(bad)
	}
	for _, retired := range [][]byte{encodeV2(ix), encodeV3(ix)} {
		if _, err := ReadIndex(bytes.NewReader(retired), cnf, matrix.Sparse()); !errors.Is(err, ErrRetiredIndex) {
			f.Fatalf("a %s image: err = %v, want ErrRetiredIndex", retired[:len(indexMagic)], err)
		}
		f.Add(retired)
	}
	dense, _, _ := NewEngine(WithBackend(matrix.Dense())).RunContext(context.Background(), g, cnf)
	buf.Reset()
	if _, err := dense.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add(append(bytes.Clone(good), 0))
	valid := relation{nnz: 3, live: 2, headers: []uint64{1, 2, 2, 1}, gaps: []uint64{2, 2, 4}}
	f.Add(rawIndex(cnf, 5, "S", valid))
	for _, r := range []relation{
		{nnz: 3, live: 2, headers: []uint64{1, 2, 0, 1}, gaps: []uint64{2, 2, 4}},
		{nnz: 3, live: 2, headers: []uint64{1, 2, 5, 1}, gaps: []uint64{2, 2, 4}},
		{nnz: 3, live: 2, headers: []uint64{1, 0, 2, 3}, gaps: []uint64{2, 2, 4}},
		{nnz: 3, live: 2, headers: []uint64{1, 2, 2, 1}, gaps: []uint64{2, 0, 4}},
		{nnz: 3, live: 2, headers: []uint64{1, 2, 2, 1}, gaps: []uint64{2, 2, 200}},
		{nnz: 3, live: 2, headers: []uint64{1, 2, 2}, rawHeaders: []byte{0x81, 0x00}, gaps: []uint64{2, 2, 4}},
		{nnz: 3, live: 2, headers: []uint64{1, 2, 2, 1}, gaps: []uint64{2, 2}, rawGaps: []byte{0x84, 0x00}},
		{nnz: 3, live: 2, headers: []uint64{1, 2, 2, 1}, gaps: []uint64{2, 2}},
		{nnz: 1 << 30, live: 1, headers: []uint64{1, 1}, gaps: []uint64{1}},
	} {
		f.Add(rawIndex(cnf, 5, "S", r))
	}
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

// relationColumns returns the column block of the named relation inside a
// CFPQIDX4 image, for editing in place.
func relationColumns(tb testing.TB, raw []byte, nt string) []byte {
	tb.Helper()
	in := indexReader{b: raw, off: len(indexMagic)}
	in.str()
	n, nn := in.u32(), in.u32()
	for k := uint32(0); k < nn; k++ {
		name := string(in.str())
		nnz, live := in.u32(), in.u32()
		ends := make([]int32, live)
		for k := range ends {
			in.uvarint(int(n))
			ends[k] = int32(in.uvarint(int(n)))
			if k > 0 {
				ends[k] += ends[k-1]
			}
		}
		start := in.off
		if err := in.columns(int(n), ends, make([]int32, nnz)); err != nil || in.err != nil {
			tb.Fatal(err, in.err)
		}
		if name == nt {
			return raw[start:in.off]
		}
	}
	tb.Fatalf("no relation %q in the image", nt)
	return nil
}

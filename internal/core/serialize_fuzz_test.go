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
	"encoding/binary"
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
	g.AddEdge(0, "a", 3)
	g.AddEdge(3, "b", 4)
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
	// An entry out of row-major order, and a repeated one: WriteTo never
	// writes either, and ReadIndex must refuse both.
	for name, edit := range map[string]func(rel []byte) []byte{
		"out of order": func(rel []byte) []byte {
			return append(append(append([]byte{}, rel[8:16]...), rel[:8]...), rel[16:]...)
		},
		"repeated": func(rel []byte) []byte {
			return append(append(append([]byte{}, rel[:8]...), rel[:8]...), rel[16:]...)
		},
	} {
		bad := bytes.Clone(good)
		rel := relationEntries(f, bad, "S")
		copy(rel, edit(rel))
		if _, err := ReadIndex(bytes.NewReader(bad), cnf, matrix.Sparse()); err == nil {
			f.Fatalf("an entry %s was accepted", name)
		}
		f.Add(bad)
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

// relationEntries returns the entry block of the named relation inside a
// CFPQIDX2 image, for editing in place.
func relationEntries(tb testing.TB, raw []byte, nt string) []byte {
	tb.Helper()
	off := len(indexMagic)
	off += 2 + int(binary.LittleEndian.Uint16(raw[off:]))
	nn := int(binary.LittleEndian.Uint32(raw[off+4:]))
	off += 8
	for k := 0; k < nn; k++ {
		name := string(raw[off+2 : off+2+int(binary.LittleEndian.Uint16(raw[off:]))])
		off += 2 + len(name)
		nnz := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		if name == nt {
			return raw[off : off+8*nnz]
		}
		off += 8 * nnz
	}
	tb.Fatalf("no relation %q in the image", nt)
	return nil
}

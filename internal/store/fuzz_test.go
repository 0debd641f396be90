// Native fuzz targets for WAL crash recovery and the snapshot decoder.
// Like the rest of the fuzz suite they are gated on go1.18 (native
// fuzzing) and run only their seed corpus under plain `go test`.
//
// Run with:
//
//	go test -fuzz=FuzzWALReplay -fuzztime=30s ./internal/store
//	go test -fuzz=FuzzSnapshotDecode -fuzztime=30s ./internal/store
//	go test -fuzz=FuzzTailPage -fuzztime=30s ./internal/store

//go:build go1.18

package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cfpq/internal/graph"
)

// FuzzWALReplay throws arbitrary bytes at the WAL reader and checks the
// recovery contract: no panic, the recovered prefix is a valid frame
// boundary, replaying the truncated prefix is a fixpoint (recovery is
// idempotent), and re-encoding the recovered batches reproduces the
// prefix byte for byte (no silent record mangling).
func FuzzWALReplay(f *testing.F) {
	seed := func(batches ...walBatch) []byte {
		var buf bytes.Buffer
		for _, b := range batches {
			if _, err := appendFrame(&buf, b.kind, b.recs); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(seed(walBatch{kind: recTokens, recs: []EdgeRecord{{From: "a", Label: "x", To: "b"}}}))
	f.Add(seed(
		walBatch{kind: recTokens, recs: []EdgeRecord{{From: "0", Label: "loves", To: "1"}, {From: "n\n", Label: "x", To: "%"}}},
		walBatch{kind: recIDs, recs: []EdgeRecord{{From: "4", Label: "y", To: "17"}}},
	))
	f.Add(append(seed(walBatch{kind: recTokens, recs: []EdgeRecord{{From: "a", Label: "x", To: "b"}}}), 0xde, 0xad, 0xbe)) // torn tail
	// collect adapts the streaming replay back to a slice for the
	// invariant checks; production callers consume one batch at a time.
	collect := func(data []byte) ([]walBatch, int64, error) {
		var batches []walBatch
		good, err := replayWAL(bytes.NewReader(data), func(b walBatch, frameBytes int64) error {
			if frameBytes <= 0 {
				return fmt.Errorf("frame of %d bytes", frameBytes)
			}
			batches = append(batches, b)
			return nil
		})
		return batches, good, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, good, err := collect(data)
		if err != nil {
			t.Fatalf("in-memory replay reported I/O error: %v", err)
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("goodBytes %d outside [0,%d]", good, len(data))
		}
		// Idempotence: replaying the recovered prefix yields the same
		// batches and consumes the whole prefix.
		again, good2, err := collect(data[:good])
		if err != nil {
			t.Fatal(err)
		}
		if good2 != good || !reflect.DeepEqual(again, batches) {
			t.Fatalf("recovery not idempotent: %d/%d bytes, %v vs %v", good2, good, again, batches)
		}
		// Round trip: re-encoding the recovered batches reproduces the
		// recovered prefix exactly.
		var re bytes.Buffer
		for _, b := range batches {
			if _, err := appendFrame(&re, b.kind, b.recs); err != nil {
				t.Fatalf("re-encoding recovered batch: %v", err)
			}
		}
		if !bytes.Equal(re.Bytes(), data[:good]) {
			t.Fatalf("re-encoded prefix differs from recovered prefix")
		}
	})
}

// FuzzSnapshotDecode throws arbitrary snapshot bodies, framed with a valid
// CRC so they reach the decoder proper, at DecodeSnapshot: it must never
// panic; a body it accepts must re-encode and decode back to the same
// nodes, edges, names and seq; and the encoder's output must come back
// byte for byte through decode → encode.
func FuzzSnapshotDecode(f *testing.F) {
	body := func(g *graph.Graph, names []string, seq uint64) []byte {
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, g, names, seq); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()[len(snapshotMagic) : buf.Len()-4]
	}
	g := graph.New(5)
	g.AddEdge(0, "x", 1)
	g.AddEdge(1, "y", 2)
	g.AddEdge(3, "x", 4)
	g.AddEdge(2, "", 2)
	f.Add(body(g, []string{"a", "", "c", "", "e"}, 9))
	f.Add(body(g, nil, 0))
	f.Add(body(graph.New(0), nil, 0))
	f.Add(append(body(g, nil, 1), 0)) // trailing byte
	f.Add(snapshotBody(4, 3, 2))      // an edge short
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = DecodeSnapshot(data) // unframed: the magic and CRC checks must not panic
		// A header may declare up to maxSnapshotNodes nodes, whose name
		// table the decoder allocates: keep the fuzzer's to 64k.
		if len(data) >= 12 {
			if n := binary.LittleEndian.Uint32(data[8:]); n > 1<<16 && n <= maxSnapshotNodes {
				return
			}
		}
		g, names, seq, err := DecodeSnapshot(snapshotFile(data))
		if err != nil {
			return
		}
		if len(names) != g.Nodes() {
			t.Fatalf("%d names for %d nodes", len(names), g.Nodes())
		}
		var first bytes.Buffer
		if err := EncodeSnapshot(&first, g, names, seq); err != nil {
			t.Fatalf("re-encoding an accepted snapshot: %v", err)
		}
		g2, names2, seq2, err := DecodeSnapshot(first.Bytes())
		if err != nil {
			t.Fatalf("decoding the encoder's output: %v", err)
		}
		if g2.Nodes() != g.Nodes() || !reflect.DeepEqual(g2.Edges(), g.Edges()) || !reflect.DeepEqual(names2, names) || seq2 != seq {
			t.Fatalf("round trip changed the snapshot: %v %q seq %d -> %v %q seq %d", g, names, seq, g2, names2, seq2)
		}
		var second bytes.Buffer
		if err := EncodeSnapshot(&second, g2, names2, seq2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("decode → encode changed the encoder's bytes")
		}
	})
}

// tailPages are the pages FuzzTailPage mutates, each the batches after
// seq 5: none, one token frame, and token frames naming new nodes around
// an id frame.
var tailPages = [][]walBatch{
	nil,
	{{kind: recTokens, recs: []EdgeRecord{{From: "a", Label: "x", To: "b"}}}},
	{
		{kind: recTokens, recs: []EdgeRecord{{From: "a", Label: "x", To: "new"}, {From: "new", Label: "y", To: "7"}}},
		{kind: recIDs, recs: []EdgeRecord{{From: "0", Label: "x", To: "12"}}},
		{kind: recTokens, recs: []EdgeRecord{{From: "café", Label: "y", To: "n\n"}}},
	},
}

// FuzzTailPage holds ReadTailPage to the pages WriteTailPage writes: a
// page read whole is exactly its batches, end seqs counted from the poll's
// position; a byte flipped anywhere in it is an error and no batch (one in
// the format byte an error that names it); a page cut short is an error
// and no batch, unless the cut falls between frames, where it reads
// exactly the batches before the cut. Whatever it accepts, WriteTailPage
// writes back byte for byte.
func FuzzTailPage(f *testing.F) {
	const from = 5
	whole := uint32(math.MaxUint32)
	f.Add(uint8(2), uint32(0), byte(0), whole)
	f.Add(uint8(0), uint32(0), byte(0), whole)
	f.Add(uint8(2), uint32(0), byte(1^'{'), whole) // a JSON body
	f.Add(uint8(2), uint32(0), byte(3), whole)     // an unknown format
	f.Add(uint8(2), uint32(3), byte(0x80), whole)  // a frame's length
	f.Add(uint8(2), uint32(40), byte(1), whole)    // a payload byte
	f.Add(uint8(2), uint32(0), byte(0), uint32(41))
	f.Add(uint8(1), uint32(0), byte(0), uint32(1))
	f.Add(uint8(1), uint32(0), byte(0), uint32(0))
	// Each page's batches, and the page offsets at which its frames end;
	// the page's frames are the ones a store journals of its batches.
	wants, ends := make([][]TailBatch, len(tailPages)), make([][]int, len(tailPages))
	for i, batches := range tailPages {
		ends[i] = []int{1}
		seq := uint64(from)
		for _, b := range batches {
			n, err := appendFrame(io.Discard, b.kind, b.recs)
			if err != nil {
				f.Fatal(err)
			}
			seq += uint64(len(b.recs))
			wants[i] = append(wants[i], TailBatch{Seq: seq, Kind: RecordKind(b.kind), Recs: b.recs, Bytes: n})
			ends[i] = append(ends[i], ends[i][len(ends[i])-1]+int(n))
		}
		var page bytes.Buffer
		if err := WriteTailPage(&page, wants[i]); err != nil {
			f.Fatal(err)
		}
		if !bytes.Equal(page.Bytes()[1:], walBytes(f, from, wants[i])) {
			f.Fatalf("page %d: its frames are not the WAL's", i)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, pos uint32, flip byte, cut uint32) {
		i := int(which) % len(tailPages)
		want := wants[i]
		var buf bytes.Buffer
		if err := WriteTailPage(&buf, want); err != nil {
			t.Fatal(err)
		}
		page := buf.Bytes()
		at, n := int(pos%uint32(len(page))), min(int(cut), len(page))
		flipped := flip != 0 && at < n
		page[at] ^= flip
		page = page[:n]
		got, err := ReadTailPage(bytes.NewReader(page), from, 1<<20)
		if err != nil {
			if got != nil {
				t.Fatalf("an error (%v) beside %d batches", err, len(got))
			}
		} else {
			var back bytes.Buffer
			if err := WriteTailPage(&back, got); err != nil || !bytes.Equal(back.Bytes(), page) {
				t.Fatalf("the batches read write back as %q (%v), not the page %q", back.Bytes(), err, page)
			}
		}
		k := slices.Index(ends[i], n) // the frames the page holds whole
		switch {
		case flipped && err == nil:
			t.Fatalf("a page with byte %d flipped by %#x read as %d batches", at, flip, len(got))
		case flipped && at == 0 && !strings.Contains(err.Error(), "format byte"):
			t.Fatalf("a page of another format: %v", err)
		case !flipped && k < 0 && err == nil:
			t.Fatalf("a page cut inside a frame, at %d of %d bytes, read as %d batches", n, buf.Len(), len(got))
		case !flipped && k >= 0 && (err != nil || len(got) != k || k > 0 && !reflect.DeepEqual(got, want[:k])):
			t.Fatalf("a page of %d whole frames read as %+v (%v), want %+v", k, got, err, want[:k])
		}
	})
}

// walBytes is the WAL a store journals of batches, the first starting at
// seq from.
func walBytes(t testing.TB, from uint64, batches []TailBatch) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateGraphAt("g", graph.New(0), nil, from, 1); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := s.AppendReplicated("g", b.Kind, b.Recs, b.Seq); err != nil {
			t.Fatal(err)
		}
	}
	wal, err := os.ReadFile(filepath.Join(dir, graphsDir, "g", "wal"))
	if err != nil {
		t.Fatal(err)
	}
	return wal
}

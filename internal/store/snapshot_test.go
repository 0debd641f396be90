package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"cfpq/internal/graph"
)

// namedScaleFree is a PreferentialAttachment graph (seed 1, m = 3,
// labels {a, b}) whose node i is named "n<i>" — at n = 100 000 the
// benchmark's sf100k input.
func namedScaleFree(n int) (*graph.Graph, []string) {
	g := graph.PreferentialAttachment(rand.New(rand.NewSource(1)), n, 3, []string{"a", "b"})
	names := make([]string, g.Nodes())
	for i := range names {
		names[i] = "n" + strconv.Itoa(i)
	}
	return g, names
}

// BenchmarkSnapshotCodec encodes and decodes the snapshot of sf100k.
func BenchmarkSnapshotCodec(b *testing.B) {
	g, names := namedScaleFree(100_000)
	var raw bytes.Buffer
	if err := EncodeSnapshot(&raw, g, names, 7); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(raw.Len()))
		b.ReportAllocs()
		for b.Loop() {
			if err := EncodeSnapshot(io.Discard, g, names, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(raw.Len()))
		b.ReportAllocs()
		for b.Loop() {
			if _, _, _, err := DecodeSnapshot(raw.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// snapshotFile frames a snapshot body — everything between the magic and
// the trailer, base seq first — as a CRC-valid CFPQSNAP1 file.
func snapshotFile(body []byte) []byte {
	raw := append([]byte(snapshotMagic), body...)
	return binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(body))
}

// snapshotBody is the body of a snapshot of nodes nodes and no names
// whose header declares edges edges, followed by records, each an edge
// (0, 1) labelled "a".
func snapshotBody(nodes, edges uint32, records int) []byte {
	b := binary.LittleEndian.AppendUint64(nil, 1)
	b = binary.LittleEndian.AppendUint32(b, nodes)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, edges)
	for range records {
		b = binary.LittleEndian.AppendUint32(b, 0)
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint16(b, 1)
		b = append(b, 'a')
	}
	return b
}

// TestDecodeSnapshotStrict: a CRC-valid snapshot the encoder cannot have
// written is refused, and refused before the decoder allocates anything
// its header sizes — a 1 KiB file declaring a million nodes and billions
// of edges or names costs kilobytes, not the 16 MiB of its name table.
func TestDecodeSnapshotStrict(t *testing.T) {
	const nodes, records = 1 << 20, 90 // 90 edges: a 1 KiB file
	if _, _, _, err := DecodeSnapshot(snapshotFile(snapshotBody(nodes, records, records))); err != nil {
		t.Fatalf("the well-formed file: %v", err)
	}
	hugeNamed := snapshotBody(nodes, records, records)
	binary.LittleEndian.PutUint32(hugeNamed[12:], 1<<32-1)
	for _, c := range []struct {
		name, want string
		body       []byte
	}{
		{"trailing bytes", "after its last edge", append(snapshotBody(nodes, records, records), 0)},
		{"a trailing edge", "after its last edge", snapshotBody(nodes, records-1, records)},
		{"huge edge count", "declares 4294967295 edges", snapshotBody(nodes, 1<<32-1, records)},
		{"edge count past the end", "truncated", snapshotBody(nodes, records+1, records)},
		{"huge named count", "declares 4294967295 named nodes", hugeNamed},
		{"node count over the limit", "above the", snapshotBody(maxSnapshotNodes+1, records, records)},
	} {
		raw := snapshotFile(c.body)
		var err error
		alloc := allocatedBytes(func() { _, _, _, err = DecodeSnapshot(raw) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.want)
		}
		if alloc > 64<<10 {
			t.Errorf("%s: decoding a %d-byte file allocated %d bytes", c.name, len(raw), alloc)
		}
	}
}

// TestSnapshotCodecAllocatesWhatItKeeps: decoding a 10k-node scale-free
// graph, every node named, allocates at most 1.25× what the result keeps
// — an Edge per edge, a string header per node slot, and the name bytes —
// and gives back the graph encoded; encoding allocates one chunk buffer.
func TestSnapshotCodecAllocatesWhatItKeeps(t *testing.T) {
	g, names := namedScaleFree(10_000)
	var raw bytes.Buffer
	if err := EncodeSnapshot(&raw, g, names, 3); err != nil {
		t.Fatal(err)
	}
	keeps := int(unsafe.Sizeof(graph.Edge{}))*g.EdgeCount() + int(unsafe.Sizeof(""))*g.Nodes()
	for _, name := range names {
		keeps += len(name)
	}
	var (
		dg     *graph.Graph
		dnames []string
		seq    uint64
		err    error
	)
	if alloc := allocatedBytes(func() { dg, dnames, seq, err = DecodeSnapshot(raw.Bytes()) }); alloc > uint64(keeps)*5/4 {
		t.Errorf("decode allocated %d bytes to keep %d: want at most 1.25×", alloc, keeps)
	}
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || dg.Nodes() != g.Nodes() || !reflect.DeepEqual(dg.Edges(), g.Edges()) || !reflect.DeepEqual(dnames, names) {
		t.Errorf("decoded %v at seq %d, want %v at 3 with the same edges and names", dg, seq, g)
	}
	if alloc := allocatedBytes(func() { err = EncodeSnapshot(io.Discard, g, names, 3) }); alloc > 64<<10+4<<10 {
		t.Errorf("encode allocated %d bytes: want one 64 KiB buffer", alloc)
	}
	if err != nil {
		t.Fatal(err)
	}
}

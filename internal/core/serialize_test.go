package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"strings"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	cnf := grammar.MustParseCNF(paperCNF)
	g := graph.Random(rng, 12, 40, []string{"subClassOf", "subClassOf_r", "type", "type_r"})
	for _, writeBE := range matrix.Backends() {
		ix, _, _ := NewEngine(WithBackend(writeBE)).RunContext(context.Background(), g, cnf)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for _, readBE := range matrix.Backends() {
			got, err := ReadIndex(bytes.NewReader(buf.Bytes()), cnf, readBE)
			if err != nil {
				t.Fatalf("%s→%s: %v", writeBE.Name(), readBE.Name(), err)
			}
			if got.Nodes() != ix.Nodes() {
				t.Fatalf("node count mismatch")
			}
			for a := 0; a < cnf.NonterminalCount(); a++ {
				nt := cnf.Names[a]
				a1, a2 := ix.Relation(nt), got.Relation(nt)
				if len(a1) != len(a2) {
					t.Fatalf("%s→%s: R_%s size mismatch", writeBE.Name(), readBE.Name(), nt)
				}
				for k := range a1 {
					if a1[k] != a2[k] {
						t.Fatalf("%s→%s: R_%s differs at %d", writeBE.Name(), readBE.Name(), nt, k)
					}
				}
			}
		}
	}
}

// TestIndexBytesPinned pins the CFPQIDX2 encoding of the paper's Figure 5
// example, closed on each backend: however the relations are built and
// held in memory, the bytes on disk do not move. The encoding also reads
// back, through a reader that reports its length and through one that
// does not, to an index that encodes to the same bytes.
func TestIndexBytesPinned(t *testing.T) {
	pins := map[string]string{
		"dense":  "272378d27a67777bbb087bace35d6aa50c4eccfbccef9123414587154f9c1b1b",
		"sparse": "b717781ffa1d313b88cfab433719492bee4e9496b9a573784bd3ab26caca5c5b",
	}
	cnf := grammar.MustParseCNF(paperCNF)
	for _, be := range matrix.Backends() {
		ix, _, err := NewEngine(WithBackend(be)).RunContext(context.Background(), paperGraph(), cnf)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := ix.WriteTo(&buf)
		if err != nil || n != int64(buf.Len()) || n != ix.encodedLen() {
			t.Fatalf("%s: wrote %d bytes (err %v), buffer holds %d, encodedLen %d", be.Name(), n, err, buf.Len(), ix.encodedLen())
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pins[be.Name()] {
			t.Errorf("%s: CFPQIDX2 bytes hash to %s, pinned %s", be.Name(), got, pins[be.Name()])
		}
		for name, r := range map[string]io.Reader{
			"sized":   bytes.NewReader(buf.Bytes()),
			"unsized": io.MultiReader(bytes.NewReader(buf.Bytes())),
		} {
			got, err := ReadIndex(r, cnf, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", be.Name(), name, err)
			}
			var again bytes.Buffer
			if _, err := got.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Errorf("%s %s: the decoded index encodes to other bytes (err %v)", be.Name(), name, err)
			}
		}
	}
}

func TestIndexRoundTripSupportsUpdate(t *testing.T) {
	// A reloaded index must accept incremental updates.
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.New(4)
	g.AddEdge(0, "a", 1)
	ix, _, _ := NewEngine().RunContext(context.Background(), g, cnf)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf, cnf, nil)
	if err != nil {
		t.Fatal(err)
	}
	NewEngine().UpdateContext(context.Background(), got, graph.Edge{From: 1, Label: "b", To: 2})
	if !got.Has("S", 0, 2) {
		t.Error("(0,2) missing after update on reloaded index")
	}
}

func TestReadIndexErrors(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a b")
	ix, _, _ := NewEngine().RunContext(context.Background(), graph.Word([]string{"a", "b"}), cnf)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at every interesting boundary must error, not panic.
	for _, cut := range []int{0, 4, len(indexMagic), len(indexMagic) + 2, len(good) / 2, len(good) - 1} {
		if _, err := ReadIndex(bytes.NewReader(good[:cut]), cnf, nil); err == nil {
			t.Errorf("truncation at %d succeeded", cut)
		}
	}
	// Corrupt magic.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := ReadIndex(bytes.NewReader(bad), cnf, nil); err == nil {
		t.Error("bad magic accepted")
	}
	// The backend-less CFPQIDX1 format of early releases is no longer read.
	v1 := append([]byte("CFPQIDX1"), good[len(indexMagic)+2+len(ix.Backend().Name()):]...)
	if _, err := ReadIndex(bytes.NewReader(v1), cnf, nil); err == nil || !strings.Contains(err.Error(), "bad index magic") {
		t.Errorf("CFPQIDX1 file: err = %v, want bad index magic", err)
	}
	// Wrong grammar (different non-terminal set).
	other := grammar.MustParseCNF("Z -> a\nY -> b")
	if _, err := ReadIndex(bytes.NewReader(good), other, nil); err == nil {
		t.Error("mismatched grammar accepted")
	}
}

func TestIndexRecordsBackend(t *testing.T) {
	// CFPQIDX2 records the computing backend: reading with a nil backend
	// must materialise the exact representation the index was built with.
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.Cycle(6, "a")
	g.AddEdge(0, "b", 1)
	for _, be := range matrix.Backends() {
		ix, _, _ := NewEngine(WithBackend(be)).RunContext(context.Background(), g, cnf)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		got, err := ReadIndex(bytes.NewReader(raw), cnf, nil)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if got.Backend() == nil || got.Backend().Name() != be.Name() {
			t.Errorf("backend %s round-tripped as %v", be.Name(), got.Backend())
		}
		// A file stamped with the retired row-parallel kernel of the same
		// representation loads on this backend, entries unchanged.
		legacy := be.Name() + "-parallel"
		stamped := binary.LittleEndian.AppendUint16([]byte(indexMagic), uint16(len(legacy)))
		stamped = append(append(stamped, legacy...), raw[len(indexMagic)+2+len(be.Name()):]...)
		old, err := ReadIndex(bytes.NewReader(stamped), cnf, nil)
		if err != nil {
			t.Fatalf("%s: %v", legacy, err)
		}
		if old.Backend() == nil || old.Backend().Name() != be.Name() || !old.Equal(ix) {
			t.Errorf("a %s file loaded as %v, equal entries %v; want %s", legacy, old.Backend(), old.Equal(ix), be.Name())
		}
	}
}

func TestReadIndexNodeLimit(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a b")
	ix, _, _ := NewEngine().RunContext(context.Background(), graph.Word([]string{"a", "b"}), cnf)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the node count (follows magic + backend string) to 2³²-1;
	// the guard must reject it instead of allocating.
	raw := buf.Bytes()
	off := len(indexMagic) + 2 + len(ix.Backend().Name())
	for k := 0; k < 4; k++ {
		raw[off+k] = 0xff
	}
	if _, err := ReadIndex(bytes.NewReader(raw), cnf, nil); err == nil {
		t.Error("oversized node count accepted")
	}
}

func TestWriteToReportsBytes(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a b")
	ix, _, _ := NewEngine().RunContext(context.Background(), graph.Word([]string{"a", "b"}), cnf)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
}

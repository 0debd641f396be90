package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

// TestIndexBytesPinned pins the CFPQIDX4 encoding of the paper's Figure 5
// example, closed on each backend: however the relations are built and
// held in memory, the bytes on disk do not move. The encoding also reads
// back, through a reader that reports its length, through one that does
// not, and from a file, to an index that encodes to the same bytes.
func TestIndexBytesPinned(t *testing.T) {
	pins := map[string]string{
		"dense":  "105067c13c6ce5b2d69b03e736a3acbaf95eb34b9a22c4004e2ff1c47443c3cf",
		"sparse": "a728789c31b0ccdc422ad6e3b952f54b3a4f66e05ec42f19b8a7c4b6b61c9ed1",
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
			t.Errorf("%s: CFPQIDX4 bytes hash to %s, pinned %s", be.Name(), got, pins[be.Name()])
		}
		// A file that Stat sizes, read from past its start.
		path := filepath.Join(t.TempDir(), "index")
		if err := os.WriteFile(path, append([]byte("prefix"), buf.Bytes()...), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Seek(int64(len("prefix")), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]io.Reader{
			"sized":   bytes.NewReader(buf.Bytes()),
			"unsized": io.MultiReader(bytes.NewReader(buf.Bytes())),
			"file":    f,
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
	// Nor are the retired CFPQIDX3 and CFPQIDX2 (what Engine.LoadIndex
	// returns), and the error names the format found and says to rebuild.
	for magic, image := range map[string][]byte{"CFPQIDX3": encodeV3(ix), "CFPQIDX2": encodeV2(ix)} {
		if _, err := ReadIndex(bytes.NewReader(image), cnf, nil); !errors.Is(err, ErrRetiredIndex) ||
			!strings.Contains(err.Error(), "retired "+magic+" format") || !strings.Contains(err.Error(), "rebuild") {
			t.Errorf("%s file: err = %v, want ErrRetiredIndex naming it", magic, err)
		}
	}
	// Wrong grammar (different non-terminal set).
	other := grammar.MustParseCNF("Z -> a\nY -> b")
	if _, err := ReadIndex(bytes.NewReader(good), other, nil); err == nil {
		t.Error("mismatched grammar accepted")
	}
}

func TestIndexRecordsBackend(t *testing.T) {
	// CFPQIDX4 records the computing backend: reading with a nil backend
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

// failAfter is a writer that takes left bytes and then fails, counting the
// writes it is asked for after the first failure.
type failAfter struct{ left, after int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.left < 0 {
		f.after++
		return 0, errDiskFull
	}
	if len(p) > f.left {
		n := f.left
		f.left = -1
		return n, errDiskFull
	}
	f.left -= len(p)
	return len(p), nil
}

// TestWriteToStopsAtTheFirstFailedWrite: an index larger than WriteTo's
// buffer, written into a destination that fails part-way, reports the
// failure and the bytes the destination took, and writes nothing after it.
func TestWriteToStopsAtTheFirstFailedWrite(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	g := graph.New(0)
	for i := range 4000 {
		g.AddEdge(i, "a", i+1)
		g.AddEdge(i+1, "b", i)
	}
	ix, _, err := NewEngine().RunContext(context.Background(), g, cnf)
	if err != nil || ix.encodedLen() < 3*indexChunk {
		t.Fatalf("an index of %d bytes (err %v), want one over three buffers", ix.encodedLen(), err)
	}
	for _, cut := range []int{0, 100, indexChunk + 7, 2*indexChunk + 1} {
		w := &failAfter{left: cut}
		n, err := ix.WriteTo(w)
		if !errors.Is(err, errDiskFull) || n != int64(cut) || w.after != 0 {
			t.Errorf("cut at %d: wrote %d bytes, err %v, %d writes after the failure", cut, n, err, w.after)
		}
	}
}

// encodeV2 returns ix in the retired CFPQIDX2 format: each relation's
// pairs as (uint32 row, uint32 col).
func encodeV2(ix *Index) []byte {
	le := binary.LittleEndian
	str := func(b []byte, s string) []byte { return append(le.AppendUint16(b, uint16(len(s))), s...) }
	out := str([]byte("CFPQIDX2"), ix.backend.Name())
	out = le.AppendUint32(le.AppendUint32(out, uint32(ix.n)), uint32(len(ix.mats)))
	for a, m := range ix.mats {
		out = le.AppendUint32(str(out, ix.cnf.Names[a]), uint32(m.Nnz()))
		m.Range(func(i, j int) bool {
			out = le.AppendUint32(le.AppendUint32(out, uint32(i)), uint32(j))
			return true
		})
	}
	return out
}

// encodeV3 returns ix in the retired CFPQIDX3 format: CFPQIDX4 with each
// column a uint32.
func encodeV3(ix *Index) []byte {
	le := binary.LittleEndian
	str := func(b []byte, s string) []byte { return append(le.AppendUint16(b, uint16(len(s))), s...) }
	out := str([]byte("CFPQIDX3"), ix.backend.Name())
	out = le.AppendUint32(le.AppendUint32(out, uint32(ix.n)), uint32(len(ix.mats)))
	for a, m := range ix.mats {
		out = le.AppendUint32(le.AppendUint32(str(out, ix.cnf.Names[a]), uint32(m.Nnz())), uint32(matrix.LiveRows(m)))
		prev := -1
		matrix.RangeRows(m, func(i int, cols []int32) bool {
			out, prev = binary.AppendUvarint(binary.AppendUvarint(out, uint64(i-prev)), uint64(len(cols))), i
			return true
		})
		m.Range(func(_, j int) bool { out = le.AppendUint32(out, uint32(j)); return true })
	}
	return out
}

// relation is a CFPQIDX4 relation body, from nnz on, each field as given:
// headers alternate gap and length, and gaps are the column gaps, each an
// uvarint unless raw bytes are spliced in after them with rawHeaders and
// rawGaps.
type relation struct {
	nnz, live  uint32
	headers    []uint64
	rawHeaders []byte
	gaps       []uint64
	rawGaps    []byte
}

func (r relation) bytes() []byte {
	le := binary.LittleEndian
	out := le.AppendUint32(le.AppendUint32(nil, r.nnz), r.live)
	for _, h := range r.headers {
		out = binary.AppendUvarint(out, h)
	}
	out = append(out, r.rawHeaders...)
	for _, g := range r.gaps {
		out = binary.AppendUvarint(out, g)
	}
	return append(out, r.rawGaps...)
}

// rawIndex returns a CFPQIDX4 image over n nodes holding cnf's relations,
// the named one as rel gives it and every other empty.
func rawIndex(cnf *grammar.CNF, n uint32, nt string, rel relation) []byte {
	le := binary.LittleEndian
	out := le.AppendUint16([]byte(indexMagic), uint16(len("sparse")))
	out = le.AppendUint32(le.AppendUint32(append(out, "sparse"...), n), uint32(len(cnf.Names)))
	for _, name := range cnf.Names {
		out = append(le.AppendUint16(out, uint16(len(name))), name...)
		if name == nt {
			out = append(out, rel.bytes()...)
		} else {
			out = append(out, relation{}.bytes()...)
		}
	}
	return out
}

// TestDecodeIndexStrict: the decoder refuses every payload WriteTo cannot
// write, one case a rule, and a count the bytes left cannot hold before it
// allocates for it. The valid case is the baseline each bad one departs
// from: S holds (0,1), (0,3) and (2,3) over 4 nodes, its column gaps 2, 2
// (row 0) and 4 (row 2).
func TestDecodeIndexStrict(t *testing.T) {
	cnf := grammar.MustParseCNF("S -> a S b | a b")
	valid := relation{nnz: 3, live: 2, headers: []uint64{1, 2, 2, 1}, gaps: []uint64{2, 2, 4}}
	ix, err := DecodeIndex(rawIndex(cnf, 4, "S", valid), cnf, nil)
	if err != nil {
		t.Fatalf("the valid image: %v", err)
	}
	if got := ix.Relation("S"); !slices.Equal(got, []matrix.Pair{{I: 0, J: 1}, {I: 0, J: 3}, {I: 2, J: 3}}) {
		t.Fatalf("the valid image decodes to %v", got)
	}
	with := func(edit func(r *relation)) []byte {
		r := valid
		r.headers, r.gaps = slices.Clone(valid.headers), slices.Clone(valid.gaps)
		edit(&r)
		return rawIndex(cnf, 4, "S", r)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"rows not strictly increasing", with(func(r *relation) { r.headers[2] = 0 }), "out of order"},
		{"first row repeats the one before it", with(func(r *relation) { r.headers[0] = 0 }), "out of order"},
		{"a row past the nodes", with(func(r *relation) { r.headers[2] = 4 }), "past 4 nodes"},
		{"a gap past the nodes", with(func(r *relation) { r.headers[0] = 5 }), "past 4 nodes"},
		{"a long field past the nodes", with(func(r *relation) { r.headers[0] = 300 }), "exceeds 4 nodes"},
		{"an empty row", with(func(r *relation) { r.headers[1], r.headers[3] = 0, 3 }), "ends at"},
		{"row lengths short of nnz", with(func(r *relation) { r.headers[1] = 1; r.headers[3] = 1 }), "rows hold 2 entries, 3 columns"},
		{"row lengths past nnz", with(func(r *relation) { r.headers[3] = 2 }), "4, past"},
		{"a zero gap (a repeated column)", with(func(r *relation) { r.gaps[1] = 0 }), "zero column gap"},
		{"a first gap of zero", with(func(r *relation) { r.gaps[2] = 0 }), "zero column gap"},
		{"a column past the nodes", with(func(r *relation) { r.gaps[1] = 3 }), "column 4 before byte"},
		{"a gap past the nodes", with(func(r *relation) { r.gaps[2] = 5 }), "past 4 nodes"},
		{"a two-byte gap past the nodes", with(func(r *relation) { r.gaps[2] = 200 }), "column 199 before byte"},
		{"a three-byte gap past the nodes", with(func(r *relation) { r.gaps[2] = 1 << 20 }), "column 1048575 before byte"},
		{"a four-byte gap past the nodes", with(func(r *relation) { r.gaps[2] = 1 << 22 }), "exceeds 4 nodes"},
		{"an overlong column gap", with(func(r *relation) { r.gaps, r.rawGaps = r.gaps[:2], []byte{0x84, 0x00} }), "overlong uvarint"},
		{"an overflowing column gap", with(func(r *relation) {
			r.gaps, r.rawGaps = r.gaps[:2], append(bytes.Repeat([]byte{0xff}, 10), 0x01)
		}), "overlong uvarint"},
		{"the last column block shorter than its rows", rawIndex(cnf, 300, "T_b#1", relation{nnz: 2, live: 1, headers: []uint64{1, 2}, gaps: []uint64{200}}), "truncated"},
		{"a column block shorter than its rows, read into the next relation", with(func(r *relation) { r.gaps = r.gaps[:2] }), "truncated"},
		{"bytes after the last relation", append(with(func(*relation) {}), 0), "1 bytes after its last relation"},
		{"an overlong uvarint", with(func(r *relation) { r.headers = r.headers[1:]; r.rawHeaders = []byte{0x81, 0x00} }), "overlong uvarint"},
		{"an overflowing uvarint", with(func(r *relation) {
			r.headers, r.rawHeaders = nil, append(bytes.Repeat([]byte{0xff}, 10), 0x01)
		}), "overlong uvarint"},
		{"more rows than entries", with(func(r *relation) { r.live = 4 }), "declares 3 entries in 4 rows"},
		{"a truncated image", func() []byte { b := with(func(*relation) {}); return b[:len(b)-1] }(), "truncated"},
		{"a retired CFPQIDX3 image", encodeV3(ix), "retired CFPQIDX3"},
		{"a retired CFPQIDX2 image", encodeV2(ix), "retired CFPQIDX2"},
	} {
		if _, err := DecodeIndex(c.data, cnf, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// Counts the bytes left cannot hold are refused before anything is
	// allocated for them: 2³⁰ entries would take 4 GiB. So is the last
	// relation's one entry more than its three bytes can hold.
	for _, c := range []struct {
		nt string
		r  relation
	}{
		{"S", relation{nnz: 1 << 30, live: 1, headers: []uint64{1, 1}, gaps: []uint64{1}}},
		{"S", relation{nnz: 1 << 30, live: 1 << 30}},
		{"S", relation{nnz: math.MaxUint32, live: 1}},
		{"T_b#1", relation{nnz: 2, live: 1, headers: []uint64{1, 2}, gaps: []uint64{1}}},
	} {
		r, data := c.r, rawIndex(cnf, 4, c.nt, c.r)
		got, _ := allocated(func() { _, err = DecodeIndex(data, cnf, nil) })
		if err == nil || !strings.Contains(err.Error(), "bytes remain") || got > 64<<10 {
			t.Errorf("nnz %d in %d rows: err = %v after %d bytes allocated, want a refusal before allocating", r.nnz, r.live, err, got)
		}
	}
}

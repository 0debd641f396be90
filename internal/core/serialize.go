package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"slices"

	"cfpq/internal/grammar"
	"cfpq/internal/matrix"
)

// Index serialization: a computed closure can be persisted and reloaded so
// repeated queries over a static graph skip the fixpoint entirely. The
// payload is independent of the backend the index was computed with, but
// the header records the backend's identity so a reload can materialise
// the exact same representation without the caller having to remember it
// out of band. Files that name a retired row-parallel backend load on the
// backend of the same representation (matrix.BackendByName).
//
// Layout of the current format (fixed-width integers little-endian):
//
//	magic "CFPQIDX4"
//	uint16 backendNameLen, backend name bytes
//	uint32 nodeCount
//	uint32 nonterminalCount
//	per non-terminal:
//	    uint16 nameLen, name bytes
//	    uint32 nnz
//	    uint32 liveRows
//	    liveRows × (uvarint rowGap, uvarint rowLen)
//	    nnz × uvarint colGap
//
// Each relation is its hypersparse CSR arrays (Buluç & Gilbert's DCSC, as
// GraphBLAS serialises it): the non-empty rows in increasing order, each
// as its distance from the one before (the first's from −1, so every gap
// is at least 1) and its entry count, then the columns of every row, row
// after row, each row's gap-coded the same way, as posting lists are
// (Witten, Moffat & Bell, Managing Gigabytes). A row header takes two
// bytes while its gap and length are under 128, and a column one byte
// while it lies within 127 of the one before it.
//
// The retired formats — CFPQIDX3, whose columns were uint32s, and
// CFPQIDX2, a pair list — are refused with ErrRetiredIndex: a saved closure
// is derived data, rebuilt and saved again rather than converted. Any
// other magic — the backend-less "CFPQIDX1" of early releases included —
// is rejected as bad.
//
// The grammar itself is NOT serialised (names only): the reader supplies
// the CNF, and names must match exactly. This keeps the index format
// stable under grammar-text round-trips and forces the caller to pair the
// index with the grammar it was built from.

const indexMagic = "CFPQIDX4"

// retiredMagics are the formats ReadIndex refuses with ErrRetiredIndex.
var retiredMagics = []string{"CFPQIDX3", "CFPQIDX2"}

// ErrRetiredIndex is what the error ReadIndex returns for an index in a
// retired format wraps; the error names the format.
var ErrRetiredIndex = errors.New("rebuild it and save it again")

// MaxIndexNodes bounds the node count ReadIndex accepts. Matrix
// allocation is driven by the declared node count before any entry is
// validated, so without a bound a corrupt or hostile header declaring
// 2³²-1 nodes would allocate gigabytes up front. The default matches the
// store's snapshot node bound — every graph the store can persist has a
// reloadable index — and sits four orders of magnitude beyond the
// paper's largest evaluation graph; callers with genuinely bigger
// indexes may raise it (fuzzing lowers it for throughput).
var MaxIndexNodes = 1 << 26

// indexChunk is the size of the one buffer WriteTo encodes into: an index
// streams through it in O(1) memory, whatever it holds.
const indexChunk = 16 << 10

// WriteTo serialises the index in the CFPQIDX4 format, recording the
// backend the matrices were allocated from. It encodes each relation
// straight from the matrices' row storage (matrix.RangeRows) — a pass for
// the row headers, then one for the columns — into one indexChunk-sized
// buffer written out whenever it fills. A destination that can grow
// (bytes.Buffer) is first grown once, by the exact encoded length
// (encodedLen).
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	long := func(s string) bool { return len(s) > 1<<16-1 }
	if long(ix.backend.Name()) || slices.ContainsFunc(ix.cnf.Names, long) {
		return 0, fmt.Errorf("core: a name is too long for the index header (over 65535 bytes)")
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(int(ix.encodedLen()))
	}
	e := &indexWriter{w: w, buf: make([]byte, 0, indexChunk)}
	e.buf = appendStr(append(e.buf, indexMagic...), ix.backend.Name())
	e.buf = le.AppendUint32(le.AppendUint32(e.buf, uint32(ix.n)), uint32(len(ix.mats)))
	for a, m := range ix.mats {
		if e.room(2 + len(ix.cnf.Names[a]) + 8) {
			e.buf = le.AppendUint32(le.AppendUint32(appendStr(e.buf, ix.cnf.Names[a]), uint32(m.Nnz())), uint32(matrix.LiveRows(m)))
		}
		e.prev = -1
		matrix.RangeRows(m, e.header)
		matrix.RangeRows(m, e.columns)
	}
	e.flush()
	return e.written, e.err
}

var le = binary.LittleEndian

// indexWriter streams an encoding through one buffer.
type indexWriter struct {
	w       io.Writer
	buf     []byte
	written int64
	err     error
	prev    int // the last row header's row
}

// room reports whether k more bytes fit in buf, writing it out first if
// they do not: false once a write has failed.
func (e *indexWriter) room(k int) bool { return len(e.buf)+k <= cap(e.buf) || e.flush() }

// flush writes buf out, unless a write has failed before, and reports
// whether every write succeeded.
func (e *indexWriter) flush() bool {
	if e.err == nil {
		n, err := e.w.Write(e.buf)
		e.written, e.buf, e.err = e.written+int64(n), e.buf[:0], err
	}
	return e.err == nil
}

// appendStr appends s, prefixed by its uint16 length.
func appendStr(b []byte, s string) []byte { return append(le.AppendUint16(b, uint16(len(s))), s...) }

// header encodes row i's header: its gap from the row before and its length.
func (e *indexWriter) header(i int, cols []int32) bool {
	gap, n := i-e.prev, len(cols)
	e.prev = i
	switch {
	case !e.room(2 * binary.MaxVarintLen32):
		return false
	case gap|n < 0x80: // two one-byte fields, the common case
		e.buf = append(e.buf, byte(gap), byte(n))
	default:
		e.buf = binary.AppendUvarint(binary.AppendUvarint(e.buf, uint64(gap)), uint64(n))
	}
	return true
}

// columns encodes a row's columns as gaps, as many at a time as the buffer
// holds at five bytes a gap.
func (e *indexWriter) columns(_ int, cols []int32) bool {
	prev := int32(-1)
	for len(cols) > 0 && e.room(binary.MaxVarintLen32) {
		b := e.buf
		k := min(len(cols), (cap(b)-len(b))/binary.MaxVarintLen32)
		for _, j := range cols[:k] {
			switch gap := j - prev; {
			case gap < 1<<7: // the common case
				b = append(b, byte(gap))
			case gap < 1<<14:
				b = append(b, byte(gap)|0x80, byte(gap>>7))
			default:
				b = binary.AppendUvarint(b, uint64(gap))
			}
			prev = j
		}
		e.buf, cols = b, cols[k:]
	}
	return e.err == nil
}

// encodedLen returns the length of the index's CFPQIDX4 encoding, computed
// from the header fields and each relation's rows.
func (ix *Index) encodedLen() int64 {
	size := int64(len(indexMagic) + 2 + len(ix.backend.Name()) + 4 + 4)
	for a, m := range ix.mats {
		size += int64(2 + len(ix.cnf.Names[a]) + 8 + rowsLen(m))
	}
	return size
}

// rowsLen returns the bytes of m's CFPQIDX4 row headers and columns.
func rowsLen(m matrix.Bool) (size int) {
	prev := -1
	matrix.RangeRows(m, func(i int, cols []int32) bool {
		size, prev = size+uvarintLen(i-prev)+uvarintLen(len(cols)), i
		last := int32(-1)
		for _, j := range cols {
			size, last = size+uvarintLen(int(j-last)), j
		}
		return true
	})
	return size
}

// uvarintLen is the length of x ≥ 1 as a uvarint: 7 bits a byte.
func uvarintLen(x int) int { return (bits.Len(uint(x)) + 6) / 7 }

// ReadIndex reads an index previously written with WriteTo from r, to its
// end, and decodes it (DecodeIndex). A reader that reports what it holds
// (Len, as bytes.Reader does, or Stat, as *os.File does) is read into one
// buffer of that size.
func ReadIndex(r io.Reader, cnf *grammar.CNF, be matrix.Backend) (*Index, error) {
	size := 0
	switch r := r.(type) {
	case interface{ Len() int }:
		size = r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	// bytes.MinRead spare bytes let the read that meets EOF end without
	// growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	return DecodeIndex(buf.Bytes(), cnf, be)
}

// DecodeIndex decodes a CFPQIDX4 index in place. The supplied CNF must be
// the grammar the index was computed for: non-terminal names and count are
// validated. Matrices are materialised with the given backend; nil means
// the backend recorded in the file (falling back to sparse for unknown
// names). Each relation's declared entry and row counts are checked
// against the bytes left before anything is allocated for it; its row
// headers are then decoded into a row list, and its column gaps, in
// place, into the one array the matrix adopts (matrix.FromCSR). A payload
// WriteTo cannot have written is refused: rows out of order, empty or out
// of range, row lengths that do not sum to the entry count, a zero column
// gap (a repeated column), a column out of range, an overlong or
// overflowing uvarint, or bytes after the last relation.
func DecodeIndex(data []byte, cnf *grammar.CNF, be matrix.Backend) (*Index, error) {
	in := indexReader{b: data}
	switch magic := in.next(len(indexMagic)); {
	case in.err != nil:
		return nil, fmt.Errorf("core: reading index magic: %w", in.err)
	case slices.Contains(retiredMagics, string(magic)):
		return nil, fmt.Errorf("core: the index is in the retired %s format; %w", magic, ErrRetiredIndex)
	case string(magic) != indexMagic:
		return nil, fmt.Errorf("core: bad index magic %q", magic)
	}
	recorded := in.str()
	n32, nn32 := in.u32(), in.u32()
	if in.err != nil {
		return nil, in.err
	}
	if be == nil {
		if rb, ok := matrix.BackendByName(string(recorded)); ok {
			be = rb
		} else {
			be = matrix.Sparse()
		}
	}
	if int64(n32) > int64(MaxIndexNodes) {
		return nil, fmt.Errorf("core: index declares %d nodes, above the %d limit (core.MaxIndexNodes)", n32, MaxIndexNodes)
	}
	n := int(n32)
	if int(nn32) != cnf.NonterminalCount() {
		return nil, fmt.Errorf("core: index has %d non-terminals, grammar has %d",
			nn32, cnf.NonterminalCount())
	}
	ix := &Index{cnf: cnf, n: n, backend: be, mats: make([]matrix.Bool, cnf.NonterminalCount())}
	for range nn32 {
		name := in.str()
		nnz, live := in.u32(), in.u32()
		if in.err != nil {
			return nil, in.err
		}
		a, ok := cnf.Index(string(name))
		if !ok {
			return nil, fmt.Errorf("core: index non-terminal %q not in grammar", name)
		}
		if ix.mats[a] != nil {
			return nil, fmt.Errorf("core: duplicate non-terminal %q in index", name)
		}
		// A row header takes at least two bytes and a column one.
		if live > nnz || nnz > math.MaxInt32 || 2*uint64(live)+uint64(nnz) > uint64(in.left()) {
			return nil, fmt.Errorf("core: %q declares %d entries in %d rows, %d bytes remain", name, nnz, live, in.left())
		}
		rows, ends, cols := make([]int32, live), make([]int32, live), make([]int32, nnz)
		row, end, b := -1, 0, in.b
		for k := range rows {
			start := end
			// A header of two one-byte fields, the common case, inline.
			if p := in.off; p+1 < len(b) && b[p]|b[p+1] < 0x80 {
				row, end, in.off = row+int(b[p]), end+int(b[p+1]), p+2
			} else {
				row += in.uvarint(n)
				end += in.uvarint(n)
			}
			switch {
			case in.err != nil:
				return nil, fmt.Errorf("core: %q: %w", name, in.err)
			case row >= n || end > int(nnz) || end == start:
				return nil, fmt.Errorf("core: %q: row %d ends at entry %d, past %d nodes or %d entries, or empty", name, row, end, n, nnz)
			}
			rows[k], ends[k] = int32(row), int32(end)
		}
		if err := in.columns(n, ends, cols); err != nil {
			return nil, fmt.Errorf("core: %q: %w", name, err)
		}
		m, err := matrix.FromCSR(be, n, rows, ends, cols)
		if err != nil {
			return nil, fmt.Errorf("core: %q: %w", name, err)
		}
		ix.mats[a] = m
	}
	if in.left() > 0 {
		return nil, fmt.Errorf("core: index has %d bytes after its last relation", in.left())
	}
	return ix, nil // as many relations as non-terminals, none twice: every one is in
}

// indexReader reads an encoded index in place. The first read past its
// end, or of a malformed uvarint, sets err; every read after it yields
// zeros.
type indexReader struct {
	b   []byte
	off int
	err error
}

func (r *indexReader) left() int { return len(r.b) - r.off }

// next returns the next k bytes.
func (r *indexReader) next(k int) []byte {
	if r.err == nil && k > r.left() {
		r.err = fmt.Errorf("core: index truncated: %d bytes wanted at byte %d of %d", k, r.off, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	r.off += k
	return r.b[r.off-k : r.off]
}

func (r *indexReader) u32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// str reads a uint16-length-prefixed string.
func (r *indexReader) str() []byte {
	k := 0
	if b := r.next(2); b != nil {
		k = int(binary.LittleEndian.Uint16(b))
	}
	return r.next(k)
}

// columns decodes the gap-coded columns of the rows ending at ends into
// cols, gaps of up to three bytes inline.
func (r *indexReader) columns(n int, ends, cols []int32) error {
	if r.err != nil {
		return r.err
	}
	b, off, k := r.b, r.off, 0
	for _, end := range ends {
		for col := -1; k < int(end); k++ {
			gap := -1
			if off+2 < len(b) {
				x0, x1, x2 := int(b[off]), int(b[off+1]), int(b[off+2])
				switch {
				case x0 < 0x80:
					gap, off = x0, off+1
				case uint(x1-1) < 0x7f: // a last byte of 1 to 127: minimal
					gap, off = x0&0x7f|x1<<7, off+2
				case x1 >= 0x80 && uint(x2-1) < 0x7f:
					gap, off = x0&0x7f|(x1&0x7f)<<7|x2<<14, off+3
				}
			}
			if gap < 0 { // a longer gap, or one among the last bytes
				r.off = off
				if gap = r.uvarint(n); r.err != nil {
					return r.err
				}
				off = r.off
			}
			switch col += gap; {
			case gap == 0:
				return fmt.Errorf("core: a zero column gap before byte %d repeats column %d", off, col)
			case col >= n:
				return fmt.Errorf("core: column %d before byte %d is past %d nodes", col, off, n)
			}
			cols[k] = int32(col)
		}
	}
	r.off = off
	return nil
}

// uvarint reads a row header field or a column gap: a minimally encoded
// uvarint of at most limit.
func (r *indexReader) uvarint(limit int) int {
	if r.err != nil {
		return 0
	}
	x, k := binary.Uvarint(r.b[r.off:])
	switch {
	case k <= 0 || k > 1 && r.b[r.off+k-1] == 0:
		r.err = fmt.Errorf("core: truncated or overlong uvarint at byte %d", r.off)
	case x > uint64(limit):
		r.err = fmt.Errorf("core: field %d at byte %d exceeds %d nodes", x, r.off, limit)
	}
	if r.err != nil {
		return 0
	}
	r.off += k
	return int(x)
}

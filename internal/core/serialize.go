package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"cfpq/internal/grammar"
	"cfpq/internal/matrix"
)

// Index serialization: a computed closure can be persisted and reloaded so
// repeated queries over a static graph skip the fixpoint entirely. The
// format is a compact row-sparse binary encoding; the payload is
// independent of the backend the index was computed with, but the header
// records the backend's identity so a reload can materialise the exact
// same representation without the caller having to remember it out of
// band. Files that name a retired row-parallel backend load on the backend
// of the same representation (matrix.BackendByName).
//
// Layout of the current format (all integers little-endian):
//
//	magic "CFPQIDX2"
//	uint16 backendNameLen, backend name bytes
//	uint32 nodeCount
//	uint32 nonterminalCount
//	per non-terminal:
//	    uint16 nameLen, name bytes
//	    uint32 nnz
//	    nnz × (uint32 row, uint32 col)   in row-major order
//
// Any other magic — the backend-less "CFPQIDX1" of early releases
// included — is rejected.
//
// The grammar itself is NOT serialised (names only): the reader supplies
// the CNF, and names must match exactly. This keeps the index format
// stable under grammar-text round-trips and forces the caller to pair the
// index with the grammar it was built from.

const indexMagic = "CFPQIDX2"

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

// WriteTo serialises the index in the CFPQIDX2 format, recording the
// backend the matrices were allocated from. It encodes a row at a time,
// straight from the matrices' row storage (matrix.RangeRows), into one
// indexChunk-sized buffer written out whenever it fills. A destination
// that can grow (bytes.Buffer) is first grown once, by the exact encoded
// length (encodedLen).
func (ix *Index) WriteTo(w io.Writer) (written int64, err error) {
	long := func(s string) bool { return len(s) > 1<<16-1 }
	if long(ix.backend.Name()) || slices.ContainsFunc(ix.cnf.Names, long) {
		return 0, fmt.Errorf("core: a name is too long for the index header (over 65535 bytes)")
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(int(ix.encodedLen()))
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, indexChunk)
	// room writes buf out unless k more bytes fit in it.
	room := func(k int) error {
		if len(buf)+k <= cap(buf) {
			return nil
		}
		n, err := w.Write(buf)
		written, buf = written+int64(n), buf[:0]
		return err
	}
	str := func(b []byte, s string) []byte { return append(le.AppendUint16(b, uint16(len(s))), s...) }
	buf = str(append(buf, indexMagic...), ix.backend.Name())
	buf = le.AppendUint32(le.AppendUint32(buf, uint32(ix.n)), uint32(len(ix.mats)))
	for a, m := range ix.mats {
		if err = room(6 + len(ix.cnf.Names[a])); err != nil {
			return written, err
		}
		buf = le.AppendUint32(str(buf, ix.cnf.Names[a]), uint32(m.Nnz()))
		matrix.RangeRows(m, func(i int, cols []int32) bool {
			for len(cols) > 0 && err == nil {
				if err = room(8); err == nil {
					// As many of the row's entries as buf has room for.
					k := min(len(cols), (cap(buf)-len(buf))/8)
					out := buf[len(buf) : len(buf)+8*k]
					for x, j := range cols[:k] {
						le.PutUint32(out[8*x:], uint32(i))
						le.PutUint32(out[8*x+4:], uint32(j))
					}
					buf, cols = buf[:len(buf)+8*k], cols[k:]
				}
			}
			return err == nil
		})
		if err != nil {
			return written, err
		}
	}
	n, err := w.Write(buf)
	return written + int64(n), err
}

// encodedLen returns the length of the index's CFPQIDX2 encoding, computed
// from the header fields and each relation's Nnz: 8 bytes an entry.
func (ix *Index) encodedLen() int64 {
	size := int64(len(indexMagic) + 2 + len(ix.backend.Name()) + 4 + 4)
	for a, m := range ix.mats {
		size += int64(2+len(ix.cnf.Names[a])+4) + 8*int64(m.Nnz())
	}
	return size
}

// readUint32 reads one little-endian uint32 through buf.
func readUint32(br *bufio.Reader, buf *[8]byte) (uint32, error) {
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:4]), nil
}

// readString reads a uint16-length-prefixed string.
func readString(br *bufio.Reader, buf *[8]byte) (string, error) {
	if _, err := io.ReadFull(br, buf[:2]); err != nil {
		return "", err
	}
	name := make([]byte, binary.LittleEndian.Uint16(buf[:2]))
	if _, err := io.ReadFull(br, name); err != nil {
		return "", err
	}
	return string(name), nil
}

// ReadIndex deserialises an index previously written with WriteTo. The
// supplied CNF must be the grammar the index was computed for:
// non-terminal names and count are validated. Matrices are materialised
// with the given backend; nil means the backend recorded in the file
// (falling back to sparse for unknown names). Each relation is decoded in
// one piece (matrix.Load), and entries out of row-major order or repeated
// — which WriteTo never writes — are rejected. A reader that reports its
// unread length (bytes.Reader) vouches for each relation's entry count,
// which is then allocated up front; a count its bytes cannot hold is
// rejected before anything is allocated for it.
func ReadIndex(r io.Reader, cnf *grammar.CNF, be matrix.Backend) (*Index, error) {
	sized, _ := r.(interface{ Len() int })
	br := bufio.NewReader(r)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading index magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("core: bad index magic %q", magic)
	}
	var rec [8]byte // every header integer is decoded through it
	var raw []byte  // and each chunk of entries through this one buffer
	recorded, err := readString(br, &rec)
	if err != nil {
		return nil, fmt.Errorf("core: reading index backend: %w", err)
	}
	if be == nil {
		if rb, ok := matrix.BackendByName(recorded); ok {
			be = rb
		} else {
			be = matrix.Sparse()
		}
	}
	n32, err := readUint32(br, &rec)
	if err != nil {
		return nil, err
	}
	nn32, err := readUint32(br, &rec)
	if err != nil {
		return nil, err
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
	for k := 0; k < int(nn32); k++ {
		name, err := readString(br, &rec)
		if err != nil {
			return nil, err
		}
		a, ok := cnf.Index(name)
		if !ok {
			return nil, fmt.Errorf("core: index non-terminal %q not in grammar", name)
		}
		if ix.mats[a] != nil {
			return nil, fmt.Errorf("core: duplicate non-terminal %q in index", name)
		}
		nnz32, err := readUint32(br, &rec)
		if err != nil {
			return nil, err
		}
		nnz, reserve := int(nnz32), min(int(nnz32), 1<<16)
		if sized != nil {
			if left := sized.Len() + br.Buffered(); nnz > left/8 {
				return nil, fmt.Errorf("core: %q declares %d entries, %d bytes remain", name, nnz, left)
			}
			reserve = nnz
		}
		m, err := matrix.Load(be, n, nnz, reserve, func(entries []matrix.Pair) error {
			raw = slices.Grow(raw[:0], 8*len(entries))[:8*len(entries)]
			if _, err := io.ReadFull(br, raw); err != nil {
				return err
			}
			for k := range entries {
				e := raw[8*k : 8*k+8]
				entries[k] = matrix.Pair{I: int(binary.LittleEndian.Uint32(e)), J: int(binary.LittleEndian.Uint32(e[4:]))}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: %q: %w", name, err)
		}
		ix.mats[a] = m
	}
	for a, m := range ix.mats {
		if m == nil {
			return nil, fmt.Errorf("core: non-terminal %q missing from index", cnf.Names[a])
		}
	}
	return ix, nil
}

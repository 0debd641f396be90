package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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

// WriteTo serialises the index in the CFPQIDX2 format, recording the
// backend the matrices were allocated from. A destination that can grow
// (bytes.Buffer) is grown once, by the exact encoded length (encodedLen).
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(int(ix.encodedLen()))
	}
	bw := bufio.NewWriter(w)
	var written int64
	// Every integer goes through one stack buffer: an entry is one 8-byte
	// record, with no reflection and no allocation per value.
	var rec [8]byte
	emit := func(b []byte) error {
		n, err := bw.Write(b)
		written += int64(n)
		return err
	}
	emitUint32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(rec[:4], v)
		return emit(rec[:4])
	}
	emitString := func(s string) error {
		if len(s) > 1<<16-1 {
			return fmt.Errorf("core: string too long for index header: %d bytes", len(s))
		}
		binary.LittleEndian.PutUint16(rec[:2], uint16(len(s)))
		if err := emit(rec[:2]); err != nil {
			return err
		}
		n, err := bw.WriteString(s)
		written += int64(n)
		return err
	}
	if _, err := bw.WriteString(indexMagic); err != nil {
		return written, err
	}
	written += int64(len(indexMagic))
	if err := emitString(ix.backend.Name()); err != nil {
		return written, err
	}
	if err := emitUint32(uint32(ix.n)); err != nil {
		return written, err
	}
	if err := emitUint32(uint32(len(ix.mats))); err != nil {
		return written, err
	}
	for a, m := range ix.mats {
		if err := emitString(ix.cnf.Names[a]); err != nil {
			return written, err
		}
		if err := emitUint32(uint32(m.Nnz())); err != nil {
			return written, err
		}
		var rangeErr error
		m.Range(func(i, j int) bool {
			binary.LittleEndian.PutUint32(rec[:4], uint32(i))
			binary.LittleEndian.PutUint32(rec[4:], uint32(j))
			rangeErr = emit(rec[:])
			return rangeErr == nil
		})
		if rangeErr != nil {
			return written, rangeErr
		}
	}
	return written, bw.Flush()
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
	var rec [8]byte // every integer, and each 8-byte entry, is decoded through it
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
		m, err := matrix.Load(be, n, nnz, reserve, func() (int, int, error) {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return 0, 0, err
			}
			return int(binary.LittleEndian.Uint32(rec[:4])), int(binary.LittleEndian.Uint32(rec[4:])), nil
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

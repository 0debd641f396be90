package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cfpq/internal/graph"
)

// On-disk formats of the two snapshot artifacts.
//
// Graph snapshot ("snapshot" in a graph directory):
//
//	magic "CFPQSNAP1"
//	uint64 baseSeq                       total edges folded into this snapshot
//	uint32 nodeCount
//	uint32 namedCount
//	per named node: uint32 id, uint16 nameLen, name bytes
//	uint32 edgeCount
//	per edge: uint32 from, uint32 to, uint16 labelLen, label bytes
//	uint32 crc32 of everything after the magic
//
// Index file ("indexes/<grammar>@<backend>.idx"):
//
//	magic "CFPQSIDX1"
//	uint64 seq                           edge-stream position the index covers
//	CFPQIDX2 payload (core.Index.WriteTo)
//	uint32 crc32 of everything after the magic
//
// Both are written atomically (temp file, fsync, rename, directory fsync)
// and validated by their CRC trailer on read, so a torn snapshot write is
// detected and the previous snapshot — replaced only by the rename — is
// never lost.

const (
	snapshotMagic  = "CFPQSNAP1"
	indexFileMagic = "CFPQSIDX1"

	// maxSnapshotNodes bounds the node count a snapshot may declare, so a
	// (CRC-colliding or hand-corrupted) header cannot drive an unbounded
	// allocation before the first edge is validated.
	maxSnapshotNodes = 1 << 26
)

// EncodeSnapshot writes a graph, its id → name table and the seq its edges
// cover as a CFPQSNAP1 snapshot: a graph directory's "snapshot" file, and
// the bootstrap payload a leader serves to followers.
func EncodeSnapshot(w io.Writer, g *graph.Graph, names []string, baseSeq uint64) error {
	cw := &crcWriter{w: w}
	var err error
	emit := func(data any) {
		if err == nil {
			err = binary.Write(cw, binary.LittleEndian, data)
		}
	}
	emitString := func(s string) {
		if err == nil && len(s) > 1<<16-1 {
			err = fmt.Errorf("store: string too long for snapshot: %d bytes", len(s))
		}
		emit(uint16(len(s)))
		if err == nil {
			_, err = io.WriteString(cw, s)
		}
	}
	if _, werr := io.WriteString(w, snapshotMagic); werr != nil {
		return werr
	}
	emit(baseSeq)
	emit(uint32(g.Nodes()))
	named := 0
	for id := range names {
		if id < g.Nodes() && names[id] != "" {
			named++
		}
	}
	emit(uint32(named))
	for id, name := range names {
		if id >= g.Nodes() || name == "" {
			continue
		}
		emit(uint32(id))
		emitString(name)
	}
	edges := g.Edges()
	emit(uint32(len(edges)))
	for _, e := range edges {
		emit(uint32(e.From))
		emit(uint32(e.To))
		emitString(e.Label)
	}
	if err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

// checkFile checks the magic and CRC trailer of a snapshot or index file
// (what names it in errors) and returns the seq its body leads with and
// the rest of the body — all Open needs of a snapshot.
func checkFile(raw []byte, magic, what string) (uint64, []byte, error) {
	if len(raw) < len(magic)+8+4 || string(raw[:len(magic)]) != magic {
		return 0, nil, fmt.Errorf("store: bad %s magic", what)
	}
	body := raw[len(magic) : len(raw)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[len(raw)-4:]) {
		return 0, nil, fmt.Errorf("store: %s CRC mismatch", what)
	}
	return binary.LittleEndian.Uint64(body), body[8:], nil
}

// DecodeSnapshot decodes and CRC-checks a CFPQSNAP1 snapshot.
func DecodeSnapshot(raw []byte) (g *graph.Graph, names []string, baseSeq uint64, err error) {
	baseSeq, body, err := checkFile(raw, snapshotMagic, "snapshot")
	if err != nil {
		return nil, nil, 0, err
	}
	br := bufio.NewReader(bytes.NewReader(body))
	read := func(data any) {
		if err == nil {
			err = binary.Read(br, binary.LittleEndian, data)
		}
	}
	readString := func() string {
		var n uint16
		read(&n)
		if err != nil {
			return ""
		}
		buf := make([]byte, n)
		if _, rerr := io.ReadFull(br, buf); rerr != nil {
			err = rerr
			return ""
		}
		return string(buf)
	}
	var nodes, named uint32
	read(&nodes)
	read(&named)
	if err != nil {
		return nil, nil, 0, err
	}
	if nodes > maxSnapshotNodes {
		return nil, nil, 0, fmt.Errorf("store: snapshot declares %d nodes, above the %d limit", nodes, maxSnapshotNodes)
	}
	g = graph.New(int(nodes))
	names = make([]string, nodes)
	for k := uint32(0); k < named; k++ {
		var id uint32
		read(&id)
		name := readString()
		if err != nil {
			return nil, nil, 0, err
		}
		if id >= nodes {
			return nil, nil, 0, fmt.Errorf("store: snapshot names node %d outside [0,%d)", id, nodes)
		}
		names[id] = name
	}
	var edgeCount uint32
	read(&edgeCount)
	if err != nil {
		return nil, nil, 0, err
	}
	for k := uint32(0); k < edgeCount; k++ {
		var from, to uint32
		read(&from)
		read(&to)
		label := readString()
		if err != nil {
			return nil, nil, 0, err
		}
		if from >= nodes || to >= nodes {
			return nil, nil, 0, fmt.Errorf("store: snapshot edge (%d,%d) outside [0,%d)", from, to, nodes)
		}
		g.AddEdge(int(from), label, int(to))
	}
	return g, names, baseSeq, nil
}

// writeIndexFile wraps the CFPQIDX2 payload that payload writes with the
// store's seq watermark and CRC trailer; the CRC accumulates as the
// payload streams through.
func writeIndexFile(w io.Writer, seq uint64, payload func(io.Writer) error) error {
	if _, err := io.WriteString(w, indexFileMagic); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	if err := binary.Write(cw, binary.LittleEndian, seq); err != nil {
		return err
	}
	if err := payload(cw); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

// readIndexFileHeader reads just the magic and seq watermark of an index
// file — the cheap form listings use; the payload CRC is validated only
// when the index is actually loaded.
func readIndexFileHeader(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var head [len(indexFileMagic) + 8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return 0, err
	}
	if string(head[:len(indexFileMagic)]) != indexFileMagic {
		return 0, fmt.Errorf("store: bad index file magic")
	}
	return binary.LittleEndian.Uint64(head[len(indexFileMagic):]), nil
}

// crcWriter accumulates an IEEE CRC-32 over everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

// writeFileAtomic writes a file via temp + fsync + rename (+ directory
// fsync unless sync is off), so readers only ever observe the previous or
// the complete new content.
func writeFileAtomic(path string, sync bool, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	// CreateTemp's 0600 would make snapshots unreadable to the group the
	// WAL (plain O_CREATE, 0644 minus umask) is readable to.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if sync {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// encodeName maps an arbitrary registry name to a safe file-name
// component: ASCII letters, digits, '.', '_' and '-' pass through, every
// other byte (including '%' itself and a leading '.') escapes to %XX. The
// mapping is injective, so distinct registry names never collide on disk.
func encodeName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		safe := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '-' || (c == '.' && i > 0)
		if safe {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// decodeName inverts encodeName.
func decodeName(enc string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(enc); i++ {
		if enc[i] != '%' {
			b.WriteByte(enc[i])
			continue
		}
		if i+3 > len(enc) {
			return "", fmt.Errorf("store: truncated escape in %q", enc)
		}
		var c byte
		if _, err := fmt.Sscanf(enc[i+1:i+3], "%02X", &c); err != nil {
			return "", fmt.Errorf("store: bad escape in %q", enc)
		}
		b.WriteByte(c)
		i += 2
	}
	return b.String(), nil
}

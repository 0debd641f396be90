package store

import (
	"bufio"
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
//	CFPQIDX4 payload (core.Index.WriteTo)
//	uint32 crc32 of everything after the magic
//
// Both are written atomically (temp file, fsync, rename, directory fsync)
// and validated by their CRC trailer on read, so a torn snapshot write is
// detected and the previous snapshot — replaced only by the rename — is
// never lost.
//
// The snapshot decoder refuses, before it allocates, a CRC-valid body the
// encoder cannot have written: over maxSnapshotNodes nodes, more named
// nodes (6+ bytes each) or edges (10+) than the bytes left can hold, a node
// outside [0, nodeCount), or bytes after the last edge.

const (
	snapshotMagic  = "CFPQSNAP1"
	indexFileMagic = "CFPQSIDX1"

	// maxSnapshotNodes bounds the node count a snapshot may declare, so a
	// (CRC-colliding or hand-corrupted) header cannot drive an unbounded
	// allocation before the first edge is validated.
	maxSnapshotNodes = 1 << 26

	crc32Residue = 0x2144df1c // the IEEE CRC-32 of any data followed by its own CRC
)

// EncodeSnapshot writes a graph, its id → name table and the seq its edges
// cover as a CFPQSNAP1 snapshot: a graph directory's "snapshot" file, and
// the bootstrap payload a leader serves to followers, through one buffer.
func EncodeSnapshot(w io.Writer, g *graph.Graph, names []string, baseSeq uint64) error {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	buf := make([]byte, 0, 64<<10)
	var err error
	flush := func(room int) {
		if len(buf)+room > cap(buf) {
			if err == nil {
				_, err = cw.Write(buf)
			}
			buf = buf[:0]
		}
	}
	str := func(s string) {
		if len(s) > 1<<16-1 && err == nil {
			err = fmt.Errorf("store: string %w for snapshot: %d bytes", ErrTooLong, len(s))
		}
		buf = append(binary.LittleEndian.AppendUint16(buf, uint16(len(s))), s...)
	}
	n, named := g.Nodes(), 0
	for id := range names {
		if id < n && names[id] != "" {
			named++
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, baseSeq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(named))
	for id, name := range names {
		if id < n && name != "" {
			flush(6 + len(name))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
			str(name)
		}
	}
	flush(4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.EdgeCount()))
	for _, l := range g.Labels() {
		for _, e := range g.EdgesWithLabel(l) {
			flush(10 + len(l))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.From))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
			str(l)
		}
	}
	flush(cap(buf)) // all of it
	if err != nil {
		return err
	}
	_, err = w.Write(binary.LittleEndian.AppendUint32(buf, cw.crc))
	return err
}

// checkFile checks the magic and CRC trailer of a snapshot or index file
// (what names it in errors) and returns the seq its body leads with and
// the rest of the body.
func checkFile(raw []byte, magic, what string) (uint64, []byte, error) {
	if len(raw) < len(magic)+8+4 || string(raw[:len(magic)]) != magic {
		return 0, nil, fmt.Errorf("store: bad %s magic", what)
	}
	if crc32.ChecksumIEEE(raw[len(magic):]) != crc32Residue {
		return 0, nil, fmt.Errorf("store: %s CRC mismatch", what)
	}
	return binary.LittleEndian.Uint64(raw[len(magic):]), raw[len(magic)+8 : len(raw)-4], nil
}

// DecodeSnapshot decodes and CRC-checks a CFPQSNAP1 snapshot, in place: a
// first pass checks every field and counts each label's edges; only then
// does it allocate the name table, one string the names are cut from, and
// each label's edge list, exactly sized and adopted by the graph.
func DecodeSnapshot(raw []byte) (*graph.Graph, []string, uint64, error) {
	baseSeq, body, err := checkFile(raw, snapshotMagic, "snapshot")
	if err != nil {
		return nil, nil, 0, err
	}
	in := &bodyReader{b: body}
	// One string per label, looked up only when an edge's differs from the last (the encoder groups them).
	index, labels, counts, last := map[string]int{}, []string{}, []int{}, -1
	intern := func(l []byte) int {
		if _, ok := index[string(l)]; !ok {
			index[string(l)], labels, counts = len(labels), append(labels, string(l)), append(counts, 0)
		}
		return index[string(l)]
	}
	nodes, named := in.u32(), in.u32()
	if nodes > maxSnapshotNodes {
		return nil, nil, 0, fmt.Errorf("store: snapshot declares %d nodes, above the %d limit", nodes, maxSnapshotNodes)
	}
	if uint64(named)*6 > uint64(in.left()) {
		return nil, nil, 0, fmt.Errorf("store: snapshot declares %d named nodes in %d bytes", named, in.left())
	}
	namesAt := in.off
	for range named {
		if id, _ := in.u32(), in.str(); id >= nodes && in.left() >= 0 {
			return nil, nil, 0, fmt.Errorf("store: snapshot names node %d outside [0,%d)", id, nodes)
		}
	}
	namesEnd := in.off
	edgeCount := in.u32()
	if uint64(edgeCount)*10 > uint64(in.left()) {
		return nil, nil, 0, fmt.Errorf("store: snapshot declares %d edges in %d bytes", edgeCount, in.left())
	}
	edgesAt := in.off
	for range edgeCount {
		from, to, l := in.u32(), in.u32(), in.str()
		if last < 0 || string(l) != labels[last] {
			last = intern(l)
		}
		if (from >= nodes || to >= nodes) && in.left() >= 0 {
			return nil, nil, 0, fmt.Errorf("store: snapshot edge (%d,%d) outside [0,%d)", from, to, nodes)
		}
		counts[last]++
	}
	if in.left() < 0 {
		return nil, nil, 0, fmt.Errorf("store: snapshot truncated")
	}
	if in.left() > 0 {
		return nil, nil, 0, fmt.Errorf("store: snapshot has %d bytes after its last edge", in.left())
	}

	names := make([]string, nodes)
	shared := string(body[namesAt:namesEnd]) // the named section: ids and lengths stay between the names
	for in.off = namesAt; in.off < namesEnd; {
		id, name := in.u32(), in.str()
		names[id] = shared[in.off-namesAt-len(name) : in.off-namesAt]
	}
	lists := make([][]graph.Edge, len(labels))
	for k, n := range counts {
		lists[k] = make([]graph.Edge, 0, n)
	}
	for in.off = edgesAt; in.left() > 0; {
		from, to, l := in.u32(), in.u32(), in.str()
		if string(l) != labels[last] {
			last = intern(l)
		}
		lists[last] = append(lists[last], graph.Edge{From: int(from), Label: labels[last], To: int(to)})
	}
	return graph.FromLabelLists(int(nodes), lists), names, baseSeq, nil
}

// bodyReader reads a snapshot body or a WAL payload in place. A read past
// its end leaves left() negative and yields zeros.
type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) left() int { return len(r.b) - r.off }

func (r *bodyReader) u32() uint32 {
	if r.off += 4; r.off > len(r.b) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.b[r.off-4:])
}

// str reads a uint16-length-prefixed string.
func (r *bodyReader) str() []byte {
	n := 0
	if r.left() >= 2 {
		n = int(binary.LittleEndian.Uint16(r.b[r.off:]))
	}
	if r.off += 2 + n; r.off > len(r.b) {
		return nil
	}
	return r.b[r.off-n : r.off]
}

// writeIndexFile wraps the CFPQIDX4 payload that payload writes with the
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

// readFileHead reads the seq after a snapshot or index file's magic (what
// names it in errors). With check set it streams the rest through the CRC
// without holding it: all Open needs of a snapshot.
func readFileHead(path, magic, what string, check bool) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	head := make([]byte, len(magic)+8+4) // the magic, the seq, and the fewest bytes a CRC trailer takes
	if _, err := io.ReadFull(f, head); err != nil || string(head[:len(magic)]) != magic {
		return 0, fmt.Errorf("store: bad %s magic", what)
	}
	if check {
		// The trailer is the CRC of the body before it, so the two end at crc32Residue.
		crc := crc32.NewIEEE()
		crc.Write(head[len(magic):])
		if _, err := io.Copy(crc, f); err != nil {
			return 0, err
		}
		if crc.Sum32() != crc32Residue {
			return 0, fmt.Errorf("store: %s CRC mismatch", what)
		}
	}
	return binary.LittleEndian.Uint64(head[len(magic):]), nil
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

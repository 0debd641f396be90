package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// The write-ahead log is a flat sequence of CRC-framed records, one frame
// per AddEdges batch:
//
//	uint32 payloadLen
//	uint32 crc32(payload)     (IEEE)
//	payload:
//	    uint8  kind           recTokens | recIDs
//	    uint32 edgeCount
//	    per edge: 3 × (uint16 tokenLen, token bytes)   from, label, to
//
// recTokens frames journal endpoints as the tokens the mutation named them
// by — a node name, or the decimal id for unnamed nodes — so replay re-runs
// the exact interning the serving layer performed (name table first, then
// numeric) and reproduces the same id assignment. recIDs frames come from
// id-addressed writers (Store.Log): endpoints are canonical decimal ids
// and replay NEVER consults the name table, so a node whose *name* happens
// to be a numeral cannot alias a different id. Frames are only ever
// appended; recovery reads frames until the first torn or corrupt one and
// truncates the file there, so a crash mid-append loses at most the record
// being written.

// EdgeRecord is one journaled edge, endpoints addressed by node token:
// a node name, or the decimal id of an unnamed node. On replay, unknown
// non-numeric tokens intern as new nodes and numeric tokens beyond the
// node range grow the graph — graph.Names.Intern, the same code the
// serving layer applies them with.
type EdgeRecord struct {
	From  string
	Label string
	To    string
}

// Frame kinds: how replay resolves the endpoint tokens.
const (
	recTokens byte = 1 // names-first, then decimal ids (serving-layer interning)
	recIDs    byte = 2 // canonical decimal ids only, name table ignored
)

// RecordKind is the exported form of a frame's resolution kind, carried by
// every tail batch so a follower re-journals it with the exact resolution
// semantics the leader recorded.
type RecordKind byte

// The two record kinds, see the frame format above.
const (
	RecordTokens = RecordKind(recTokens)
	RecordIDs    = RecordKind(recIDs)
)

// Valid reports whether k is one of the two defined kinds.
func (k RecordKind) Valid() bool { return k == RecordTokens || k == RecordIDs }

// walBatch is one decoded frame.
type walBatch struct {
	kind byte
	recs []EdgeRecord
}

// maxWALPayload bounds a frame's declared payload so a corrupt length
// field cannot drive a huge allocation; it matches the serving layer's
// 64 MiB document bound.
const maxWALPayload = 64 << 20

// appendFrame encodes one batch as a frame and writes it to w.
func appendFrame(w io.Writer, kind byte, recs []EdgeRecord) (int64, error) {
	payload, err := encodeFrame(kind, recs)
	if err != nil {
		return 0, err
	}
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(head[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(len(head)) + int64(len(payload)), nil
}

func encodeFrame(kind byte, recs []EdgeRecord) ([]byte, error) {
	if kind != recTokens && kind != recIDs {
		return nil, fmt.Errorf("store: unknown WAL record kind %d", kind)
	}
	size := 5
	for _, r := range recs {
		for _, tok := range []string{r.From, r.Label, r.To} {
			if len(tok) > 1<<16-1 {
				return nil, fmt.Errorf("store: token %w for WAL record: %d bytes", ErrTooLong, len(tok))
			}
			size += 2 + len(tok)
		}
	}
	if size > maxWALPayload {
		return nil, fmt.Errorf("store: WAL batch of %d bytes exceeds the %d frame bound", size, maxWALPayload)
	}
	payload := make([]byte, 0, size)
	payload = append(payload, kind)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(recs)))
	for _, r := range recs {
		for _, tok := range []string{r.From, r.Label, r.To} {
			payload = binary.LittleEndian.AppendUint16(payload, uint16(len(tok)))
			payload = append(payload, tok...)
		}
	}
	return payload, nil
}

// canonicalID reports whether tok is the canonical decimal rendering of a
// non-negative int — the only endpoint form recIDs frames may carry.
func canonicalID(tok string) bool {
	id, err := strconv.Atoi(tok)
	return err == nil && id >= 0 && strconv.Itoa(id) == tok
}

func decodeFrame(payload []byte) (walBatch, error) {
	if len(payload) < 5 {
		return walBatch{}, fmt.Errorf("store: WAL payload of %d bytes is shorter than its header", len(payload))
	}
	kind := payload[0]
	if kind != recTokens && kind != recIDs {
		return walBatch{}, fmt.Errorf("store: unknown WAL record kind %d", kind)
	}
	count := binary.LittleEndian.Uint32(payload[1:5])
	// Each edge needs at least 6 bytes (three empty tokens), bounding the
	// allocation by the payload actually present.
	if int64(count) > int64(len(payload))/6+1 {
		return walBatch{}, fmt.Errorf("store: WAL payload declares %d edges in %d bytes", count, len(payload))
	}
	in := &bodyReader{b: payload, off: 5}
	recs := make([]EdgeRecord, 0, count)
	for range count {
		r := EdgeRecord{From: string(in.str()), Label: string(in.str()), To: string(in.str())}
		if in.left() < 0 {
			return walBatch{}, fmt.Errorf("store: WAL payload truncated")
		}
		if r.Label == "" || r.From == "" || r.To == "" {
			// An empty node token would be indistinguishable from
			// "unnamed" in the snapshot's name table and make replay
			// diverge from the live state; Append rejects these, so a
			// frame carrying one is corrupt.
			return walBatch{}, fmt.Errorf("store: WAL record with empty token %+v", r)
		}
		if kind == recIDs && (!canonicalID(r.From) || !canonicalID(r.To)) {
			return walBatch{}, fmt.Errorf("store: id-addressed WAL record with non-id endpoint %+v", r)
		}
		recs = append(recs, r)
	}
	if in.left() != 0 {
		return walBatch{}, fmt.Errorf("store: %d trailing bytes in WAL payload", in.left())
	}
	return walBatch{kind: kind, recs: recs}, nil
}

// tailPageFormat opens a tail page, so that a follower refuses a page of
// another format instead of misreading it.
const tailPageFormat byte = 1

// WriteTailPage writes batches as one replication tail page: the format
// byte, then each batch's frame exactly as the WAL journals it.
func WriteTailPage(w io.Writer, batches []TailBatch) error {
	if _, err := w.Write([]byte{tailPageFormat}); err != nil {
		return err
	}
	for _, b := range batches {
		if _, err := appendFrame(w, byte(b.Kind), b.Recs); err != nil {
			return err
		}
	}
	return nil
}

// ReadTailPage decodes a page of the batches after seq from, of at most
// pageBytes of frames and one frame more (TailSince's bound), counting each
// batch's Seq from from. Unlike recovery, a page must be whole: a torn or
// corrupt frame, another format or a page past the bound is an error, and
// no batch is returned.
func ReadTailPage(r io.Reader, from uint64, pageBytes int64) ([]TailBatch, error) {
	limit := 1 + pageBytes + 8 + maxWALPayload
	page, err := io.ReadAll(io.LimitReader(r, limit+1))
	switch {
	case err != nil:
		return nil, err
	case int64(len(page)) > limit:
		return nil, fmt.Errorf("store: tail page longer than %d bytes", limit)
	case len(page) == 0 || page[0] != tailPageFormat:
		return nil, fmt.Errorf("store: tail page does not open with format byte %d: %.16q", tailPageFormat, page)
	}
	var batches []TailBatch
	// Over bytes in memory, with an apply that returns nil, replay only stops.
	good, _ := replayWAL(bytes.NewReader(page[1:]), func(b walBatch, frameBytes int64) error {
		from += uint64(len(b.recs))
		batches = append(batches, TailBatch{Seq: from, Kind: RecordKind(b.kind), Recs: b.recs, Bytes: frameBytes})
		return nil
	})
	if good != int64(len(page)-1) {
		return nil, fmt.Errorf("store: torn or corrupt frame at byte %d of a tail page", 1+good)
	}
	return batches, nil
}

// replayWAL reads frames from r until EOF or the first torn/corrupt frame,
// handing each decoded batch (with its on-disk frame size) to apply one at
// a time — so replaying an arbitrarily long log holds a single batch in
// memory, never the whole WAL — and returns the byte offset of the end of
// the last good frame. A short header, short payload, CRC mismatch or
// undecodable payload all end the replay at the preceding frame boundary —
// that is the crash-recovery contract: everything before the tear
// survives, the tear itself is discarded. Only an I/O failure (not
// corruption) or an apply error is reported as an error.
func replayWAL(r io.Reader, apply func(b walBatch, frameBytes int64) error) (goodBytes int64, err error) {
	br := bufio.NewReader(r)
	for {
		var head [8]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return goodBytes, nil
			}
			return goodBytes, err
		}
		length := binary.LittleEndian.Uint32(head[0:4])
		sum := binary.LittleEndian.Uint32(head[4:8])
		if length > maxWALPayload {
			return goodBytes, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return goodBytes, nil
			}
			return goodBytes, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return goodBytes, nil
		}
		b, err := decodeFrame(payload)
		if err != nil {
			return goodBytes, nil
		}
		if err := apply(b, 8+int64(length)); err != nil {
			return goodBytes, err
		}
		goodBytes += 8 + int64(length)
	}
}

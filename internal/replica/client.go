package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"cfpq/internal/store"
)

// Sentinel errors a leader signals through HTTP status codes; the tailer
// branches on these with errors.Is.
var (
	// ErrSnapshotRequired (410 Gone) means the requested tail position is
	// unservable — compacted away, past the head, or from a different
	// epoch — and the follower must re-bootstrap the graph from a snapshot.
	ErrSnapshotRequired = errors.New("replica: tail unavailable, snapshot re-bootstrap required")
	// ErrUnknownGraph (404) means the leader has no such graph; the
	// follower's registry view is stale and needs a manifest re-sync.
	ErrUnknownGraph = errors.New("replica: graph unknown to leader")
)

// maxSnapshotBytes bounds a snapshot download; it mirrors the serving
// layer's 64 MiB document bound with headroom for the binary framing.
const maxSnapshotBytes = 256 << 20

// Client speaks the leader's replication protocol over
// http.DefaultClient. The zero value is not usable; set Base.
type Client struct {
	// Base is the leader's root URL, e.g. "http://10.0.0.1:8080".
	Base string
	// FollowerID identifies this follower to the leader's compaction
	// retention (the leader holds WAL tails for followers it has heard
	// from recently). Optional but strongly recommended.
	FollowerID string
}

func (c *Client) get(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	u := strings.TrimRight(c.Base, "/") + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// statusErr drains resp and converts its status to an error; resp.Body is
// closed. 404 and 410 map to the tailer's sentinel errors.
func statusErr(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	switch resp.StatusCode {
	case http.StatusGone:
		return fmt.Errorf("%w (%s)", ErrSnapshotRequired, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w (%s)", ErrUnknownGraph, msg)
	default:
		return fmt.Errorf("replica: leader answered %s: %s", resp.Status, msg)
	}
}

// Manifest fetches the leader's registry description.
func (c *Client) Manifest(ctx context.Context) (*Manifest, error) {
	resp, err := c.get(ctx, "/v1/replica/snapshot", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr(resp)
	}
	defer resp.Body.Close()
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("replica: decoding manifest: %w", err)
	}
	return &m, nil
}

// GraphSnapshot downloads one graph's binary snapshot; the returned seq and
// epoch come from the X-Cfpq-Seq / X-Cfpq-Epoch response headers and name
// the edge-stream position the snapshot captures.
func (c *Client) GraphSnapshot(ctx context.Context, name string) (raw []byte, seq, epoch uint64, err error) {
	resp, err := c.get(ctx, "/v1/replica/snapshot", url.Values{"graph": {name}})
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, statusErr(resp)
	}
	defer resp.Body.Close()
	if seq, err = strconv.ParseUint(resp.Header.Get("X-Cfpq-Seq"), 10, 64); err != nil {
		return nil, 0, 0, fmt.Errorf("replica: snapshot response missing X-Cfpq-Seq: %w", err)
	}
	if epoch, err = strconv.ParseUint(resp.Header.Get("X-Cfpq-Epoch"), 10, 64); err != nil {
		return nil, 0, 0, fmt.Errorf("replica: snapshot response missing X-Cfpq-Epoch: %w", err)
	}
	raw, err = io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes+1))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("replica: reading snapshot: %w", err)
	}
	if int64(len(raw)) > maxSnapshotBytes {
		return nil, 0, 0, fmt.Errorf("replica: snapshot for %q exceeds %d bytes", name, int64(maxSnapshotBytes))
	}
	return raw, seq, epoch, nil
}

// Tail long-polls the leader's WAL for one graph: batches after seq `from`
// of stream `epoch`, waiting up to `wait` for new writes before returning an
// empty page. ErrSnapshotRequired and ErrUnknownGraph are returned as such.
func (c *Client) Tail(ctx context.Context, graph string, from, epoch uint64, wait time.Duration) (*TailResponse, error) {
	q := url.Values{
		"graph": {graph},
		"from":  {strconv.FormatUint(from, 10)},
		"epoch": {strconv.FormatUint(epoch, 10)},
		"wait":  {wait.String()},
	}
	if c.FollowerID != "" {
		q.Set("follower", c.FollowerID)
	}
	resp, err := c.get(ctx, "/v1/replica/wal", q)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr(resp)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		return nil, fmt.Errorf("replica: leader answered the tail as %q, not as WAL frames (application/octet-stream): it speaks another replication protocol", ct)
	}
	h := resp.Header
	seq, err1 := strconv.ParseUint(h.Get("X-Cfpq-Leader-Seq"), 10, 64)
	version, err2 := strconv.ParseUint(h.Get("X-Cfpq-Config-Version"), 10, 64)
	remaining, err3 := strconv.ParseInt(h.Get("X-Cfpq-Remaining-Bytes"), 10, 64)
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, fmt.Errorf("replica: tail response headers: %w", err)
	}
	batches, err := store.ReadTailPage(resp.Body, from, TailPageBytes)
	if err != nil {
		return nil, fmt.Errorf("replica: reading tail page: %w", err)
	}
	return &TailResponse{LeaderSeq: seq, ConfigVersion: version, RemainingBytes: remaining, Batches: batches}, nil
}

package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cfpq/internal/store"
)

var ctx = context.Background()

func TestStatusReady(t *testing.T) {
	cases := []struct {
		name   string
		st     Status
		maxLag uint64
		want   bool
	}{
		{"bootstrapping", Status{State: StateBootstrapping}, 0, false},
		{"degraded", Status{State: StateDegraded}, 0, false},
		{"stopped", Status{State: StateStopped}, 0, false},
		{"streaming caught up", Status{State: StateStreaming}, 0, true},
		{"streaming any finite lag", Status{State: StateStreaming, LagRecords: 1 << 20}, 0, true},
		{"streaming within bound", Status{State: StateStreaming, LagRecords: 10}, 10, true},
		{"streaming beyond bound", Status{State: StateStreaming, LagRecords: 11}, 10, false},
	}
	for _, c := range cases {
		if got := c.st.Ready(c.maxLag); got != c.want {
			t.Errorf("%s: Ready(%d) = %v, want %v", c.name, c.maxLag, got, c.want)
		}
	}
}

// tailLeader serves page as the body of every tail poll, with the given
// content type and leader headers.
func tailLeader(t *testing.T, contentType string, page []byte) *Client {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("X-Cfpq-Leader-Seq", "12")
		w.Header().Set("X-Cfpq-Config-Version", "4")
		w.Header().Set("X-Cfpq-Remaining-Bytes", "77")
		w.Write(page)
	}))
	t.Cleanup(srv.Close)
	return &Client{Base: srv.URL}
}

// TestTailPageRoundTrip sends a page of a token frame and an id frame
// through Client.Tail: the batches come back as written, their end seqs
// counted from the poll's position and their sizes the frames' own, with
// the leader's headers beside them.
func TestTailPageRoundTrip(t *testing.T) {
	in := []store.TailBatch{
		{Seq: 2, Kind: store.RecordTokens, Bytes: 31, Recs: []store.EdgeRecord{
			{From: "a", Label: "x", To: "b"},
			{From: "b", Label: "y", To: "c"},
		}},
		{Seq: 3, Kind: store.RecordIDs, Bytes: 22, Recs: []store.EdgeRecord{
			{From: "0", Label: "z", To: "2"},
		}},
	}
	var page bytes.Buffer
	if err := store.WriteTailPage(&page, in); err != nil {
		t.Fatal(err)
	}
	tr, err := tailLeader(t, "application/octet-stream", page.Bytes()).Tail(ctx, "g", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := &TailResponse{LeaderSeq: 12, ConfigVersion: 4, RemainingBytes: 77, Batches: in}
	if !reflect.DeepEqual(tr, want) {
		t.Errorf("the page read back as %+v, want %+v", tr, want)
	}
}

// TestTailRefusesOtherFormats: a follower refuses, with an error that says
// why, the JSON tail of a leader that predates WAL-frame pages, and a page
// of an unknown format.
func TestTailRefusesOtherFormats(t *testing.T) {
	for _, c := range []struct {
		contentType string
		body        string
		want        string
	}{
		{"application/json", `{"graph":"g","from":0,"leader_seq":1,"batches":[]}`, "not as WAL frames"},
		{"application/octet-stream", `{"graph":"g","from":0,"leader_seq":1,"batches":[]}`, "format byte"},
		{"application/octet-stream", "\x02", "format byte"},
		{"application/octet-stream", "", "format byte"},
	} {
		_, err := tailLeader(t, c.contentType, []byte(c.body)).Tail(ctx, "g", 0, 1, 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %q: err = %v, want one naming %q", c.contentType, c.body, err, c.want)
		}
	}
}

// TestClientSentinels checks the HTTP status → sentinel error mapping the
// tailer branches on: 410 means re-bootstrap, 404 means re-sync.
func TestClientSentinels(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("graph") {
		case "compacted":
			http.Error(w, "tail gone", http.StatusGone)
		case "vanished":
			http.Error(w, "no such graph", http.StatusNotFound)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, FollowerID: "t"}

	if _, err := c.Tail(ctx, "compacted", 5, 1, 0); !errors.Is(err, ErrSnapshotRequired) {
		t.Errorf("410: err = %v, want ErrSnapshotRequired", err)
	}
	if _, err := c.Tail(ctx, "vanished", 5, 1, 0); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("404: err = %v, want ErrUnknownGraph", err)
	}
	_, err := c.Tail(ctx, "other", 5, 1, 0)
	if err == nil || errors.Is(err, ErrSnapshotRequired) || errors.Is(err, ErrUnknownGraph) {
		t.Errorf("500: err = %v, want a plain error", err)
	}
}

// TestClientRequests checks the wire format the client emits and decodes:
// manifest JSON, snapshot headers, and the tail query string.
func TestClientRequests(t *testing.T) {
	manifest := Manifest{
		ConfigVersion: 7,
		Grammars:      map[string]string{"q": "S -> a"},
		Graphs:        []GraphMeta{{Name: "g", Seq: 9, Epoch: 3}},
	}
	var tailQuery map[string]string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/replica/snapshot":
			if r.URL.Query().Get("graph") == "" {
				json.NewEncoder(w).Encode(manifest)
				return
			}
			w.Header().Set("X-Cfpq-Seq", "9")
			w.Header().Set("X-Cfpq-Epoch", "3")
			w.Write([]byte("binary-snapshot"))
		case "/v1/replica/wal":
			tailQuery = map[string]string{}
			for k := range r.URL.Query() {
				tailQuery[k] = r.URL.Query().Get(k)
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("X-Cfpq-Leader-Seq", "9")
			w.Header().Set("X-Cfpq-Config-Version", "7")
			w.Header().Set("X-Cfpq-Remaining-Bytes", "0")
			store.WriteTailPage(w, nil)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL + "/", FollowerID: "f1"} // trailing slash must not double up

	m, err := c.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*m, manifest) {
		t.Errorf("manifest = %+v, want %+v", *m, manifest)
	}

	raw, seq, epoch, err := c.GraphSnapshot(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "binary-snapshot" || seq != 9 || epoch != 3 {
		t.Errorf("snapshot = %q seq=%d epoch=%d", raw, seq, epoch)
	}

	tr, err := c.Tail(ctx, "g", 9, 3, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LeaderSeq != 9 || tr.ConfigVersion != 7 || len(tr.Batches) != 0 {
		t.Errorf("tail = %+v, want leader seq 9, config version 7 and no batch", tr)
	}
	want := map[string]string{
		"graph": "g", "from": "9", "epoch": "3", "wait": "250ms", "follower": "f1",
	}
	if !reflect.DeepEqual(tailQuery, want) {
		t.Errorf("tail query = %v, want %v", tailQuery, want)
	}
}

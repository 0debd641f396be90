package server

// Tests of streamed pairs answers: a client that stops reading releases
// its handler at the write deadline — an SSE subscriber's too — a cancelled request stops the walk at
// its next chunk, and an answer read beside a writer is one version's.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipeListener accepts the server ends of net.Pipe connections: a pipe
// buffers nothing, so a client that stops reading blocks the server's
// next write at once.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// dial returns the client end of a fresh connection.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// shortDeadline stands in for the connection under Handler: it shortens
// every write deadline set through it to 200 ms, and records the largest
// write the handler made.
type shortDeadline struct {
	http.ResponseWriter
	largest int
}

func (w *shortDeadline) Write(p []byte) (int, error) {
	w.largest = max(w.largest, len(p))
	return w.ResponseWriter.Write(p)
}

func (w *shortDeadline) SetWriteDeadline(d time.Time) error {
	if !d.IsZero() {
		d = time.Now().Add(200 * time.Millisecond)
	}
	return http.NewResponseController(w.ResponseWriter).SetWriteDeadline(d)
}

// TestStalledClientReleasesTheHandler sends a query whose answer is many
// chunks long and reads only the start of the response: the handler's
// write deadline (writeTimeout, shortened here) ends the blocked write, so
// the handler returns, and it never handed the connection more than one
// chunk (plus a pair) at once.
func TestStalledClientReleasesTheHandler(t *testing.T) {
	h := Handler(fanService(t, 20000))
	returned := make(chan int, 1)
	l := newPipeListener()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &shortDeadline{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		returned <- sw.largest
	})}
	go srv.Serve(l)
	defer srv.Close()

	conn := l.dial()
	defer conn.Close()
	body := `{"graph":"fan","grammar":"reach","nonterminal":"S"}`
	go fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: cfpqd\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("status %d, transfer encoding %v: want a chunked 200", resp.StatusCode, resp.TransferEncoding)
	}
	// Stop reading.
	select {
	case largest := <-returned:
		if largest > answerChunk+64 {
			t.Errorf("the handler wrote %d bytes at once: want at most one %d-byte chunk and a pair", largest, answerChunk)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the handler is still writing to a client that stopped reading")
	}
}

// flushShortDeadline is shortDeadline for a stream: it forwards Flush, so
// the SSE route writes each event through to the connection.
type flushShortDeadline struct{ *shortDeadline }

func (w flushShortDeadline) Flush() { http.NewResponseController(w.ResponseWriter).Flush() }

// TestStalledSubscriberReleasesTheHandler opens an SSE subscription, reads
// its prelude and stops reading while a writer publishes updates of 2 001
// pairs each: the first event's write reaches its deadline (writeTimeout,
// shortened here), which cancels the request, so the handler returns and
// the subscription leaves the active count.
func TestStalledSubscriberReleasesTheHandler(t *testing.T) {
	s := fanService(t, 2000)
	h := Handler(s)
	returned := make(chan struct{})
	l := newPipeListener()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(flushShortDeadline{&shortDeadline{ResponseWriter: w}}, r)
		close(returned)
	})}
	go srv.Serve(l)
	defer srv.Close()

	conn := l.dial()
	defer conn.Close()
	body := `{"graph":"fan","grammar":"reach","nonterminal":"S"}`
	go fmt.Fprintf(conn, "POST /v1/subscribe HTTP/1.1\r\nHost: cfpqd\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || line != ": subscribed\n" {
		t.Fatalf("prelude %q, %v", line, err)
	}
	// Stop reading; every update now derives a pair per fan node.
	for i := 0; i < 4; i++ {
		if _, err := s.AddEdges(ctx, "fan", []EdgeSpec{{From: fmt.Sprintf("new%d", i), Label: "knows", To: "n0"}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the subscribe handler is still writing to a client that stopped reading")
	}
	waitFor(t, 5*time.Second, func() bool { return s.subsActive.Load() == 0 }, "the stalled subscription's end")
}

func deref(p *int) int {
	if p == nil {
		return -1
	}
	return *p
}

// cancelOnWrite is a discarding ResponseWriter that cancels its request
// at the first write and counts the writes that reach it.
type cancelOnWrite struct {
	discardWriter
	cancel context.CancelFunc
	writes int
}

func (w *cancelOnWrite) Write(p []byte) (int, error) {
	w.writes++
	w.cancel()
	return w.discardWriter.Write(p)
}

// TestCancelledRequestStopsTheWalk: once the request's context is done —
// its client went away — no further chunk of a streamed answer is
// written.
func TestCancelledRequestStopsTheWalk(t *testing.T) {
	h := Handler(fanService(t, 20000))
	rr := newReplayRequest(ctx, "/v1/query", QueryRequest{Graph: "fan", Grammar: "reach", Nonterminal: "S"})
	rr.serve(h) // builds the slot
	if rr.w.bytes < 10*answerChunk {
		t.Fatalf("the answer is %d bytes: want ten chunks or more", rr.w.bytes)
	}
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := &cancelOnWrite{discardWriter: discardWriter{h: http.Header{}}, cancel: cancel}
	rr.body.Reset(rr.raw)
	h.ServeHTTP(w, rr.r.WithContext(reqCtx))
	if w.writes != 1 || w.bytes > answerChunk+64 {
		t.Errorf("%d writes, %d bytes after the request was cancelled at the first: want that one chunk only", w.writes, w.bytes)
	}
}

// TestStreamedAnswerReadsOneVersion races whole-relation queries and
// batches, each streamed over many chunks, against a writer that
// publishes a version per edge. Every node a_i reaches the hub, and the
// k-th edge hub → new<k> adds (hub, new<k>) and every (a_i, new<k>): an
// answer is one version's relation exactly when it is the relation after
// some k edges, and a batch's relations, count and rows read one k.
func TestStreamedAnswerReadsOneVersion(t *testing.T) {
	const (
		spokes  = 200
		edges   = 30
		readers = 2
	)
	var doc strings.Builder
	for i := range spokes {
		fmt.Fprintf(&doc, "a%d knows hub\n", i)
	}
	s := New()
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader(doc.String())); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", reachGrammar); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	// version reports the k whose relation pairs are, or -1.
	version := func(pairs []NamedPair) int {
		k := (len(pairs) - spokes) / (spokes + 1)
		want := map[NamedPair]bool{}
		for i := range spokes {
			want[NamedPair{From: fmt.Sprintf("a%d", i), To: "hub"}] = true
			for j := 1; j <= k; j++ {
				want[NamedPair{From: fmt.Sprintf("a%d", i), To: fmt.Sprintf("new%d", j)}] = true
			}
		}
		for j := 1; j <= k; j++ {
			want[NamedPair{From: "hub", To: fmt.Sprintf("new%d", j)}] = true
		}
		if len(want) != len(pairs) {
			return -1
		}
		for _, p := range pairs {
			if !want[p] {
				return -1
			}
			delete(want, p)
		}
		return k
	}
	post := func(path, body string, into any) {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
			return
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Error(err)
		}
	}
	var ans QueryAnswer
	post("/v1/query", `{"graph":"g","grammar":"reach","nonterminal":"S"}`, &ans) // builds the slot
	// A batch reads the relation, its count, the relation again and each
	// spoke's row.
	batchBody := `{"graph":"g","grammar":"reach","queries":[{"nonterminal":"S"},{"op":"count","nonterminal":"S"},{"nonterminal":"S"}`
	for i := range spokes {
		batchBody += fmt.Sprintf(`,{"op":"relation-from","nonterminal":"S","sources":["a%d"]}`, i)
	}
	batchBody += "]}"

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for k := 1; k <= edges; k++ {
			if _, err := s.AddEdges(ctx, "g", []EdgeSpec{{From: "hub", Label: "knows", To: fmt.Sprintf("new%d", k)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one more read of the last version
				default:
				}
				var ans QueryAnswer
				post("/v1/query", `{"graph":"g","grammar":"reach","nonterminal":"S"}`, &ans)
				if k := version(ans.Pairs); k < 0 || ans.Count == nil || *ans.Count != len(ans.Pairs) {
					t.Errorf("a query answered %d pairs, count %d: no one version's relation", len(ans.Pairs), deref(ans.Count))
					return
				}
				var batch struct{ Results []BatchAnswer }
				post("/v1/query/batch", batchBody, &batch)
				if len(batch.Results) != 3+spokes {
					t.Errorf("batch answered %+v", batch.Results)
					return
				}
				all, count := batch.Results[0].Pairs, deref(batch.Results[1].Count)
				k := version(all)
				if k < 0 || count != len(all) || version(batch.Results[2].Pairs) != k {
					t.Errorf("a batch read %d pairs, count %d and %d pairs: no one version", len(all), count, len(batch.Results[2].Pairs))
					return
				}
				for _, row := range batch.Results[3:] {
					if len(row.Pairs) != 1+k {
						t.Errorf("a batch read %d pairs, and %d from a spoke: no one version", len(all), len(row.Pairs))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

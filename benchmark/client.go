package main

// The depth-0 client: real HTTP over loopback to the child, every request
// under a timeout, every request counted so the server's own request
// histogram can be checked against what was actually sent.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"cfpq/internal/graph"
	"cfpq/internal/server"
)

const requestTimeout = 60 * time.Second

type client struct {
	hc      *http.Client
	sent    atomic.Int64
	timeout time.Duration
}

// newClient gives each closed-loop caller its own keep-alive connection;
// conns bounds them at min(2, nproc) plus the probe's.
func newClient(conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns + 1, MaxConnsPerHost: conns + 1}
	return &client{hc: &http.Client{Transport: tr}, timeout: requestTimeout}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and body. A transport error
// or a timeout is an error; a non-200 status is returned for the caller to
// count as a failed op.
func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	c.sent.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// must is for untimed set-up requests, where anything but 200 is fatal.
func (c *client) must(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	status, out, err := c.do(ctx, method, url, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, status, out)
	}
	return out, nil
}

func (c *client) putGraph(ctx context.Context, s *cfpqd, in *input) error {
	_, err := c.must(ctx, http.MethodPut, s.base+"/v1/graphs/"+in.name+"?format=edgelist", in.edgeList)
	return err
}

func (c *client) putGrammar(ctx context.Context, s *cfpqd, in *input) error {
	_, err := c.must(ctx, http.MethodPut, s.base+"/v1/grammars/"+in.grammarName, []byte(in.grammarText))
	return err
}

// query posts one declarative request; a non-200 answer is an error.
func (c *client) query(ctx context.Context, s *cfpqd, body []byte) (server.QueryAnswer, int, error) {
	var ans server.QueryAnswer
	status, out, err := c.do(ctx, http.MethodPost, s.base+"/v1/query", body)
	if err != nil {
		return ans, 0, err
	}
	if status != http.StatusOK {
		return ans, len(out), fmt.Errorf("POST /v1/query: status %d: %s", status, out)
	}
	return ans, len(out), json.Unmarshal(out, &ans)
}

// countRequest asks for |R_S| of a case: the cold op, and the check after
// every set-up and recovery.
func countRequest(in *input) server.QueryRequest {
	return server.QueryRequest{Graph: in.name, Grammar: in.grammarName, Nonterminal: startNT, Output: "count"}
}

func countBody(in *input) []byte { return mustJSON(countRequest(in)) }

// readBody renders one op of the read mix as its POST /v1/query body.
func readBody(in *input, op readOp) []byte {
	req := server.QueryRequest{Graph: in.name, Grammar: in.grammarName, Nonterminal: startNT}
	switch op.class {
	case "exists":
		req.Sources, req.Targets, req.Output = []string{in.names[op.src]}, []string{in.names[op.dst]}, "exists"
	case "pairs_from":
		req.Sources, req.Output = []string{in.names[op.src]}, "pairs"
	case "count":
		req.Output = "count"
	case "pairs_page":
		req.Output, req.Limit = "pairs", pageLimit
	case "rpq_from":
		req.Grammar, req.Nonterminal = "", ""
		req.Expr, req.Sources, req.Output = rpqExpr, []string{in.names[op.src]}, "pairs"
	}
	return mustJSON(req)
}

// edgeSpecs names a batch's endpoints the way the upload named them.
func edgeSpecs(in *input, batch []graph.Edge) []server.EdgeSpec {
	specs := make([]server.EdgeSpec, len(batch))
	for i, e := range batch {
		specs[i] = server.EdgeSpec{From: in.names[e.From], Label: e.Label, To: in.names[e.To]}
	}
	return specs
}

func edgesBody(in *input, batch []graph.Edge) []byte {
	return mustJSON(map[string]any{"edges": edgeSpecs(in, batch)})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only ever called on the benchmark's own plain structs
	}
	return b
}

// pushEvent is one SSE "pairs" event as the subscriber received it.
type pushEvent struct {
	at    time.Time
	pairs []server.NamedPair
	err   error // terminal: the stream broke or said resync
}

// subscribe opens the standing query on S and returns once the server has
// confirmed the subscription; events arrive on the channel until ctx ends.
func subscribe(ctx context.Context, s *cfpqd, in *input) (<-chan pushEvent, error) {
	body := mustJSON(server.SubscribeRequest{Graph: in.name, Grammar: in.grammarName, Nonterminal: startNT})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/subscribe", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	// A connection of its own: the stream must not queue behind requests.
	hc := &http.Client{Transport: &http.Transport{}}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("POST /v1/subscribe: status %d: %s", resp.StatusCode, msg)
	}
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	if line, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: no confirmation (%q, %v)", line, err)
	}
	// Sized to a whole run's events so the reader never blocks on the
	// consumer and every receive time is the socket's.
	ch := make(chan pushEvent, 1<<16)
	go func() {
		defer resp.Body.Close()
		defer close(ch)
		var ev pushEvent
		var kind string
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				if ctx.Err() == nil {
					ch <- pushEvent{err: fmt.Errorf("subscribe: stream ended: %w", err)}
				}
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = line[7:]
			case strings.HasPrefix(line, "data: "):
				ev.at = time.Now()
				var wire struct {
					Resync bool               `json:"resync"`
					Pairs  []server.NamedPair `json:"pairs"`
				}
				if kind != "pairs" {
					ch <- pushEvent{err: fmt.Errorf("subscribe: unexpected %q event: %s", kind, line[6:])}
					return
				}
				if err := json.Unmarshal([]byte(line[6:]), &wire); err != nil || wire.Resync {
					ch <- pushEvent{err: fmt.Errorf("subscribe: bad or resync event %q (%v)", line[6:], err)}
					return
				}
				ev.pairs = wire.Pairs
			case line == "":
				if ev.pairs != nil {
					ch <- ev
				}
				ev, kind = pushEvent{}, ""
			}
		}
	}()
	return ch, nil
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cfpq/internal/store"
)

// TestNoReaderWaitsOnAParkedFsync parks a batch inside its WAL fsync and
// asserts that every kind of registry read answers beside it, from the
// version published before the batch: the graph listing and one graph's
// info, a name-addressed query, a query batch, a subscriber rendering the
// event of the batch before, and the replication reads of the stream
// position and the bootstrap snapshot. Only the graph's writers wait on a
// write.
func TestNoReaderWaitsOnAParkedFsync(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{CompactBytes: -1}) // fsync on
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New()
	if err := s.AttachStore(ctx, st); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadGraph("social", "edgelist", strings.NewReader("alice knows bob\nbob knows carol\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", reachGrammar); err != nil {
		t.Fatal(err)
	}
	if _, err := relation(ctx, s, journalTarget, "S"); err != nil {
		t.Fatal(err)
	}
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub, ge, err := s.subscribe(subCtx, SubscribeRequest{Graph: "social", Grammar: "reach", Nonterminal: "S"}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The batch before: its event waits in the subscription.
	if _, err := s.AddEdges(ctx, "social", []EdgeSpec{{From: "carol", Label: "knows", To: "dave"}}); err != nil {
		t.Fatal(err)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	st.SetFsyncObserver(func(time.Duration) { once.Do(func() { close(parked); <-release }) })
	written := make(chan error, 1)
	go func() {
		_, err := s.AddEdges(ctx, "social", []EdgeSpec{{From: "dave", Label: "knows", To: "erin"}})
		written <- err
	}()
	<-parked
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	readers := map[string]func() error{
		"Graphs": func() error {
			if gs := s.Graphs(); len(gs) != 1 || gs[0].Nodes != 4 || gs[0].Version != 1 {
				return fmt.Errorf("Graphs() = %+v, want social at version 1 with 4 nodes", gs)
			}
			return nil
		},
		"GET /v1/graphs/social": func() error {
			resp, err := http.Get(srv.URL + "/v1/graphs/social")
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			return nil
		},
		"Do by name": func() error {
			got, err := relation(ctx, s, journalTarget, "S", "alice")
			want := []NamedPair{{"alice", "bob"}, {"alice", "carol"}, {"alice", "dave"}}
			if err == nil && !slices.Equal(got, want) {
				err = fmt.Errorf("pairs from alice = %v, want %v", got, want)
			}
			return err
		},
		"QueryBatch": func() error {
			answers, err := s.QueryBatch(ctx, journalTarget, []BatchQuerySpec{{Op: "has", Nonterminal: "S", From: "alice", To: "dave"}})
			if err == nil && (answers[0].Has == nil || !*answers[0].Has) {
				err = fmt.Errorf("answers = %+v, want alice reaching dave", answers)
			}
			return err
		},
		"subscriber": func() error {
			b, _, _ := waitNext(sub, 10*time.Second)
			if got := ge.named(b.Pairs); !slices.Contains(got, NamedPair{"carol", "dave"}) {
				return fmt.Errorf("event pairs = %v, want carol → dave among them", got)
			}
			return nil
		},
		"GraphPos": func() error {
			if seq, _, ok := s.GraphPos("social"); !ok || seq != 1 {
				return fmt.Errorf("GraphPos = %d, %v; want seq 1", seq, ok)
			}
			return nil
		},
		"ReplicaGraphSnapshot": func() error {
			_, seq, _, err := s.ReplicaGraphSnapshot("social")
			if err == nil && seq != 1 {
				err = fmt.Errorf("snapshot at seq %d, want 1", seq)
			}
			return err
		},
	}
	answered := make(chan string, len(readers))
	for name, read := range readers {
		go func() {
			if err := read(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			answered <- name
		}()
	}
	deadline := time.After(2 * time.Second)
wait:
	for n := len(readers); n > 0; n-- {
		select {
		case name := <-answered:
			delete(readers, name)
		case <-deadline:
			break wait
		}
	}
	for name := range readers {
		t.Errorf("%s waited on a writer's fsync", name)
	}
	close(release)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	for range readers {
		<-answered
	}
}

// TestReadersNameOnlyPublishedNodes races writers, each batch of which
// interns a run of fresh nodes that extends the writer's own chain out of
// "root", against readers that query each writer's next node as soon as it
// resolves. A name a reader can resolve is in a published version — the
// graph listing loaded after it counts its node, although the batch that
// interned it may still be interning the rest of its run — and every answer
// names nodes by the names their batches gave them, never by an id the name
// table it was rendered with did not cover. Run under -race.
func TestReadersNameOnlyPublishedNodes(t *testing.T) {
	const (
		writers = 2
		readers = 4
		batches = 20 // per writer
		run     = 32 // fresh nodes a batch
		nodes   = batches * run
	)
	s := New()
	if _, err := s.LoadGraph("g", "edgelist", strings.NewReader("root knows hub\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("step", "S -> knows"); err != nil {
		t.Fatal(err)
	}
	target := Target{Graph: "g", Grammar: "step"}
	if _, err := relation(ctx, s, target, "S"); err != nil {
		t.Fatal(err)
	}
	node := func(w, i int) string {
		if i < 0 {
			return "root"
		}
		return fmt.Sprintf("w%d-%d", w, i)
	}
	// published reports whether a rendered name is one a batch gave a node.
	published := func(name string) bool {
		if name == "root" || name == "hub" {
			return true
		}
		var w, i int
		n, err := fmt.Sscanf(name, "w%d-%d", &w, &i)
		return err == nil && n == 2 && name == node(w, i) && w < writers && i < nodes
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				edges := make([]EdgeSpec, run)
				for j := range edges {
					i := b*run + j
					edges[j] = EdgeSpec{From: node(w, i-1), Label: "knows", To: node(w, i)}
				}
				if _, err := s.AddEdges(ctx, "g", edges); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := make([]int, writers) // per writer, the first node not yet seen
			for seen := 0; seen < writers*nodes; {
				w := (r + seen) % writers
				for next[w] == nodes {
					w = (w + 1) % writers
				}
				name := node(w, next[w])
				pairs, err := relation(ctx, s, target, "S", name)
				if errors.Is(err, ErrNotFound) {
					continue // not published yet
				} else if err != nil {
					t.Error(err)
					return
				}
				if gs := s.Graphs(); len(gs) != 1 || gs[0].Nodes < 2+next[w]+1 {
					t.Errorf("%s resolved, but the published graph has %+v", name, gs)
					return
				}
				for _, p := range pairs {
					if p.From != name || !published(p.To) {
						t.Errorf("pairs from %s name %v", name, p)
						return
					}
				}
				next[w]++
				seen++
			}
		}()
	}
	wg.Wait()

	all, err := relation(ctx, s, target, "S")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range all {
		if !published(p.From) || !published(p.To) {
			t.Fatalf("relation names %v", p)
		}
	}
	if want := 1 + writers*nodes; len(all) != want {
		t.Fatalf("relation holds %d pairs, want %d", len(all), want)
	}
}

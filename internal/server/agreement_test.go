package server

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cfpq/internal/graph"
	"cfpq/internal/store"
)

// The agreement property behind "follower == leader at equal seq": the same
// frames, applied by the leader's AddEdges, by a follower's
// ApplyReplicatedEdges fed from ReplicaTail, and by store replay on
// reopening a data dir, must end in the same edge multiset, the same
// id → name table and the same seq — also for tokens that look like ids,
// ids that look like names, numerals outside the node range and names that
// repeat inside one batch.

// streamState is what the property compares.
type streamState struct {
	Edges []graph.Edge
	Names []string
	Seq   uint64
}

func newStreamState(g *graph.Graph, names []string, seq uint64) streamState {
	edges := g.Edges()
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		return cmp.Or(strings.Compare(a.Label, b.Label), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return streamState{Edges: edges, Names: slices.Clone(names), Seq: seq}
}

func serviceState(t *testing.T, s *Service, name string) streamState {
	t.Helper()
	ge, err := s.graphEntry(name)
	if err != nil {
		t.Fatal(err)
	}
	ge.mu.RLock()
	defer ge.mu.RUnlock()
	if len(ge.names.ByID()) != ge.g.Nodes() {
		t.Fatalf("name table covers %d nodes, graph has %d", len(ge.names.ByID()), ge.g.Nodes())
	}
	return newStreamState(ge.g, ge.names.ByID(), ge.seq)
}

func storeState(t *testing.T, st *store.Store, name string) streamState {
	t.Helper()
	g, names, seq, err := st.GraphState(name)
	if err != nil {
		t.Fatal(err)
	}
	return newStreamState(g, names, seq)
}

// adversarialTokens is the pool batches draw endpoints from. The graph
// starts with 9 nodes: "a", "b", and node 2 *named* "7".
var adversarialTokens = []string{
	"a", "b", "7", // names — the last one also a numeral
	"0", "3", "8", "+5", "007", // numerals inside the initial range
	"9", "12", "40", // numerals outside it (until the graph grows)
	"-1", "99999999999999999999", // not ids: negative, overflowing
	"n0", "n1", "n2", "n0", "two words", // fresh names, one of them twice
}

func randomBatch(rng *rand.Rand) []store.EdgeRecord {
	recs := make([]store.EdgeRecord, 1+rng.Intn(4))
	for i := range recs {
		recs[i] = store.EdgeRecord{
			From:  adversarialTokens[rng.Intn(len(adversarialTokens))],
			Label: []string{"k", "l"}[rng.Intn(2)],
			To:    adversarialTokens[rng.Intn(len(adversarialTokens))],
		}
	}
	return recs
}

// agreementNodes builds the leader and two followers (one durable, one in
// memory) of one 9-node graph, the followers bootstrapped from the leader's
// snapshot exactly as the replicator would.
func agreementNodes(t *testing.T) (leader, durable, memory *Service, leaderDir, followerDir string) {
	t.Helper()
	leaderDir, followerDir = t.TempDir(), t.TempDir()
	leader = persistentService(t, leaderDir)
	if err := leader.RegisterGraph("g", graph.New(9), map[string]int{"a": 0, "b": 1, "7": 2}); err != nil {
		t.Fatal(err)
	}
	raw, seq, epoch, err := leader.ReplicaGraphSnapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	durable, memory = persistentService(t, followerDir), New()
	for _, f := range []*Service{durable, memory} {
		g, names, _, err := store.DecodeSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.BootstrapGraph("g", g, names, seq, epoch); err != nil {
			t.Fatal(err)
		}
		f.SetReadOnly(true)
	}
	return leader, durable, memory, leaderDir, followerDir
}

// shipTail feeds everything the leader's WAL holds past each follower's
// position through ApplyReplicatedEdges.
func shipTail(t *testing.T, leader *Service, followers ...*Service) {
	t.Helper()
	for _, f := range followers {
		from, epoch, _ := f.GraphPos("g")
		resp, err := leader.ReplicaTail(ctx, "g", "agreement", from, epoch, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, wb := range resp.Batches {
			b, err := wb.Batch()
			if err != nil {
				t.Fatal(err)
			}
			if err := f.ApplyReplicatedEdges(ctx, "g", b.Kind, b.Recs, b.Seq); err != nil {
				t.Fatalf("applying %v frame %v: %v", b.Kind, b.Recs, err)
			}
		}
	}
}

func requireAgreement(t *testing.T, what string, want streamState, got map[string]streamState) {
	t.Helper()
	for who, st := range got {
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("%s: %s diverged\n got  %+v\n want %+v", what, who, st, want)
		}
	}
}

// TestAgreementLeaderWrites drives token batches through the leader's
// AddEdges (which rejects what only a typo can produce — a numeral outside
// the node range — and journals the rest) and ships its WAL to the
// followers after every batch.
func TestAgreementLeaderWrites(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			leader, durable, memory, leaderDir, followerDir := agreementNodes(t)
			accepted := 0
			for step := 0; step < 40; step++ {
				recs := randomBatch(rng)
				specs := make([]EdgeSpec, len(recs))
				for i, r := range recs {
					specs[i] = EdgeSpec{From: r.From, Label: r.Label, To: r.To}
				}
				before := serviceState(t, leader, "g")
				if _, err := leader.AddEdges(ctx, "g", specs); err != nil {
					// A rejected batch must leave no trace, in memory or in the WAL.
					requireAgreement(t, fmt.Sprintf("step %d, rejected %v (%v)", step, recs, err), before, map[string]streamState{
						"leader":       serviceState(t, leader, "g"),
						"leader store": storeState(t, leader.store, "g"),
					})
					continue
				}
				accepted++
				shipTail(t, leader, durable, memory)
				requireAgreement(t, fmt.Sprintf("step %d, batch %v", step, recs), serviceState(t, leader, "g"), map[string]streamState{
					"leader store":     storeState(t, leader.store, "g"),
					"durable follower": serviceState(t, durable, "g"),
					"follower store":   storeState(t, durable.store, "g"),
					"memory follower":  serviceState(t, memory, "g"),
				})
			}
			if accepted == 0 {
				t.Fatal("the leader accepted no batch; the property checked nothing")
			}
			want := serviceState(t, leader, "g")
			requireAgreement(t, "after reopening both data dirs", want, map[string]streamState{
				"leader replay":   serviceState(t, reopen(t, leader, leaderDir), "g"),
				"follower replay": serviceState(t, reopen(t, durable, followerDir), "g"),
			})
		})
	}
}

// TestAgreementMixedFrames journals token frames *and* id-addressed frames
// (what a Store.Log writer produces) straight into the leader's store —
// past AddEdges' validation, so out-of-range numerals and "-1" reach the
// stream too — and checks the followers against the leader's store mirror.
func TestAgreementMixedFrames(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			leader, durable, memory, leaderDir, followerDir := agreementNodes(t)
			for step := 0; step < 40; step++ {
				what := ""
				if rng.Intn(2) == 0 {
					recs := randomBatch(rng)
					if _, err := leader.store.Append("g", recs); err != nil {
						t.Fatal(err)
					}
					what = fmt.Sprintf("step %d, token frame %v", step, recs)
				} else {
					edges := make([]graph.Edge, 1+rng.Intn(3))
					for i := range edges {
						// Ids around the node named "7" and a little past
						// the current range.
						edges[i] = graph.Edge{From: rng.Intn(12), Label: "k", To: 5 + rng.Intn(45)}
					}
					if err := leader.store.Log("g").AppendEdges(edges); err != nil {
						t.Fatal(err)
					}
					what = fmt.Sprintf("step %d, id frame %v", step, edges)
				}
				shipTail(t, leader, durable, memory)
				requireAgreement(t, what, storeState(t, leader.store, "g"), map[string]streamState{
					"durable follower": serviceState(t, durable, "g"),
					"follower store":   storeState(t, durable.store, "g"),
					"memory follower":  serviceState(t, memory, "g"),
				})
			}
			want := storeState(t, leader.store, "g")
			requireAgreement(t, "after reopening both data dirs", want, map[string]streamState{
				"leader replay":   serviceState(t, reopen(t, leader, leaderDir), "g"),
				"follower replay": serviceState(t, reopen(t, durable, followerDir), "g"),
			})
		})
	}
}

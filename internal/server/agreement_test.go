package server

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cfpq"
	"cfpq/internal/baseline"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
	"cfpq/internal/rpq"
	"cfpq/internal/store"
)

// The agreement property behind "follower == leader at equal seq": the same
// frames, applied by the leader's AddEdges, by a follower's
// ApplyReplicatedEdges fed from ReplicaTail, and by store replay on
// reopening a data dir, must end in the same edge multiset, the same
// id → name table and the same seq — also for tokens that look like ids,
// ids that look like names, numerals outside the node range and names that
// repeat inside one batch. Every node holds a cached index and a live
// subscription on the graph throughout, and the leader's batches intern
// fresh names: growth is an ordinary update, so the answers equal an
// independent oracle's on the same edge set, the subscribers are pushed
// exactly the oracle's new pairs, and no node pays a second index build.
// Beside it every node answers RPQ expressions from expr slots built before
// the first batch and patched by every one, against a second oracle,
// rpq.EvaluateBFS.

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
	v := ge.cur.Load()
	if len(ge.names.ByID()) != v.g.Nodes() {
		t.Fatalf("name table covers %d nodes, graph has %d", len(ge.names.ByID()), v.g.Nodes())
	}
	return newStreamState(v.g, ge.names.ByID(), v.seq)
}

func storeState(t *testing.T, st *store.Store, name string) streamState {
	t.Helper()
	g, fold, seq, err := st.GraphState(name)
	if err != nil {
		t.Fatal(err)
	}
	return newStreamState(g, fold.Names.ByID(), seq)
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

// agreementGrammar is the query the nodes keep an index for, over the
// batches' two labels.
const agreementGrammar = "S -> k S l | S S | k"

var agreementTarget = Target{Graph: "g", Grammar: "q"}

// oracleRelation is R_S of the service's current edge set according to
// baseline.Hellings, in row-major order.
func oracleRelation(t *testing.T, s *Service) []matrix.Pair {
	t.Helper()
	ge, err := s.graphEntry("g")
	if err != nil {
		t.Fatal(err)
	}
	g := ge.cur.Load().g
	return baseline.Hellings(g, grammar.MustCNF(grammar.MustParse(agreementGrammar)))["S"]
}

// namedPairs renders id pairs the way the service does.
func namedPairs(t *testing.T, s *Service, pairs []matrix.Pair) []NamedPair {
	t.Helper()
	ge, err := s.graphEntry("g")
	if err != nil {
		t.Fatal(err)
	}
	return ge.named(pairs)
}

// servedIndex is one node holding a cached index on the graph and a
// subscription to it.
type servedIndex struct {
	who string
	svc *Service
	sub *cfpq.Subscription
	ge  *graphEntry
}

// serveIndex registers the grammar the way the node's role allows, pays the
// node's one index build and subscribes.
func serveIndex(t *testing.T, who string, s *Service) servedIndex {
	t.Helper()
	if err := s.ApplyGrammar("q", agreementGrammar); err != nil {
		t.Fatal(err)
	}
	subCtx, cancel := context.WithCancel(ctx)
	t.Cleanup(cancel)
	sub, ge, err := s.subscribe(subCtx, SubscribeRequest{Graph: "g", Grammar: "q", Nonterminal: "S"}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return servedIndex{who: who, svc: s, sub: sub, ge: ge}
}

// requireServed checks one node after a batch: its answer is the oracle's
// relation, its subscription was pushed exactly the oracle's new pairs — one
// batch, or none when the relation did not grow — and it still serves the
// index it built first.
func (n servedIndex) requireServed(t *testing.T, what string, want, grown []NamedPair) {
	t.Helper()
	got, err := relation(ctx, n.svc, agreementTarget, "S")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %s answers %v, the oracle %v", what, n.who, got, want)
	}
	var pushed []NamedPair
	select {
	case b, ok := <-n.sub.Updates():
		if !ok || b.Resync {
			t.Fatalf("%s: %s's stream lost continuity (open=%v, %+v)", what, n.who, ok, b)
		}
		pushed = n.ge.named(b.Pairs)
	default:
	}
	if !slices.Equal(pushed, grown) {
		t.Fatalf("%s: %s was pushed %v, the relation grew by %v", what, n.who, pushed, grown)
	}
	if builds := n.svc.obs.indexBuilds.Value(); builds != 1 {
		t.Fatalf("%s: %s has run %d index builds, want the one it paid on first use", what, n.who, builds)
	}
}

// agreementExprs are the RPQs every node answers from its expr slots, over
// the batches' labels: a plus, a nullable star (the service asks for no
// empty paths, so ε adds no pair), a concatenation after an alternation,
// and a label no batch writes. The parser accepts no expression whose
// language is empty or {ε} — every one holds a non-empty word — so the last
// is the nearest thing to a degenerate expression: it answers the empty
// relation.
var agreementExprs = []string{"k+", "l*", "(k | l) l", "m+"}

// exprRestrictions are the source and target lists each expression is asked
// under: none, sources, targets, and both.
var exprRestrictions = [][2][]string{
	{nil, nil},
	{{"a", "7"}, nil},
	{nil, {"b", "7"}},
	{{"a", "b"}, {"b", "7"}},
}

// requireExprs checks every node's answers to agreementExprs against
// rpq.EvaluateBFS on the leader's edge set, restricted to the request's
// sources and targets. The nodes are at the leader's seq.
func requireExprs(t *testing.T, what string, leader *Service, nodes []servedIndex) {
	t.Helper()
	ge, err := leader.graphEntry("g")
	if err != nil {
		t.Fatal(err)
	}
	g := ge.cur.Load().g
	ids := func(tokens []string) map[int]bool {
		if tokens == nil {
			return nil
		}
		out := map[int]bool{}
		for _, tok := range tokens {
			id, err := ge.names.Lookup(tok)
			if err != nil {
				t.Fatal(err)
			}
			out[id] = true
		}
		return out
	}
	type restricted struct {
		sources, targets map[int]bool
	}
	sets := make([]restricted, len(exprRestrictions))
	for i, r := range exprRestrictions {
		sets[i] = restricted{ids(r[0]), ids(r[1])}
	}
	for _, expr := range agreementExprs {
		all := rpq.EvaluateBFS(g, rpq.MustParseRegex(expr), rpq.Options{})
		for i, r := range exprRestrictions {
			var oracle []matrix.Pair
			for _, p := range all {
				if (sets[i].sources == nil || sets[i].sources[p.I]) && (sets[i].targets == nil || sets[i].targets[p.J]) {
					oracle = append(oracle, p)
				}
			}
			want := namedPairs(t, leader, oracle)
			for _, n := range nodes {
				ans, err := n.svc.Do(ctx, QueryRequest{Graph: "g", Expr: expr, Sources: r[0], Targets: r[1]})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(ans.Pairs, want) || ans.Explain.Strategy != "cached-read" {
					t.Fatalf("%s: %s answers %q (sources %q, targets %q) with %v by %s, BFS %v",
						what, n.who, expr, r[0], r[1], ans.Pairs, ans.Explain.Strategy, want)
				}
			}
		}
	}
	for _, n := range nodes {
		if builds := n.svc.obs.exprIndexBuilds.Value(); builds != uint64(len(agreementExprs)) {
			t.Fatalf("%s: %s has run %d expr builds, want one per expression", what, n.who, builds)
		}
	}
}

// TestAgreementLeaderWrites drives token batches through the leader's
// AddEdges (which rejects what only a typo can produce — a numeral outside
// the node range — and journals the rest) and ships its WAL to the
// followers after every batch. Every batch also interns a name no node has
// seen, so every accepted write grows the node set under the cached indexes.
func TestAgreementLeaderWrites(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			leader, durable, memory, leaderDir, followerDir := agreementNodes(t)
			nodes := []servedIndex{
				serveIndex(t, "leader", leader),
				serveIndex(t, "durable follower", durable),
				serveIndex(t, "memory follower", memory),
			}
			relationNow := oracleRelation(t, leader)
			requireExprs(t, "before the first batch", leader, nodes)
			accepted := 0
			for step := 0; step < 40; step++ {
				recs := randomBatch(rng)
				recs = append(recs, store.EdgeRecord{From: fmt.Sprintf("fresh%d", step), Label: "k", To: recs[0].From})
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
				what := fmt.Sprintf("step %d, batch %v", step, recs)
				requireAgreement(t, what, serviceState(t, leader, "g"), map[string]streamState{
					"leader store":     storeState(t, leader.store, "g"),
					"durable follower": serviceState(t, durable, "g"),
					"follower store":   storeState(t, durable.store, "g"),
					"memory follower":  serviceState(t, memory, "g"),
				})
				// Equal streams, so one oracle serves all three nodes — and
				// their answers are each other's at equal (epoch, seq).
				prev := relationNow
				relationNow = oracleRelation(t, leader)
				var grown []matrix.Pair
				for _, p := range relationNow {
					if _, had := slices.BinarySearchFunc(prev, p, func(a, b matrix.Pair) int {
						return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
					}); !had {
						grown = append(grown, p)
					}
				}
				want, pushed := namedPairs(t, leader, relationNow), namedPairs(t, leader, grown)
				for _, n := range nodes {
					n.requireServed(t, what, want, pushed)
				}
				requireExprs(t, what, leader, nodes)
			}
			if accepted < 10 {
				t.Fatalf("the leader accepted %d growing batches; the property wants at least 10", accepted)
			}
			want := serviceState(t, leader, "g")
			leaderReplay, followerReplay := reopen(t, leader, leaderDir), reopen(t, durable, followerDir)
			requireAgreement(t, "after reopening both data dirs", want, map[string]streamState{
				"leader replay":   serviceState(t, leaderReplay, "g"),
				"follower replay": serviceState(t, followerReplay, "g"),
			})
			// Each data dir holds the index as first built, on the 9-node
			// graph: the restart warm-starts it and patches it forward through
			// every growing batch, without a build.
			// Expr slots are not saved: each replay builds its own and
			// answers what the leader answered.
			requireExprs(t, "after reopening both data dirs", leaderReplay, []servedIndex{
				{who: "leader replay", svc: leaderReplay}, {who: "follower replay", svc: followerReplay},
			})
			answers := namedPairs(t, leaderReplay, relationNow)
			for who, s := range map[string]*Service{"leader replay": leaderReplay, "follower replay": followerReplay} {
				got, err := relation(ctx, s, agreementTarget, "S")
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, answers) {
					t.Fatalf("%s answers %v, the oracle %v", who, got, answers)
				}
				if m := s.obs; m.indexBuilds.Value() != 0 || m.warmStarts.Value() != 1 {
					t.Fatalf("%s: %d index builds and %d warm starts, want 0 and 1", who, m.indexBuilds.Value(), m.warmStarts.Value())
				}
			}
		})
	}
}

// TestAgreementMixedFrames journals token frames *and* id-addressed frames
// (what a Store.Log writer produces) straight into the leader's store —
// past AddEdges' validation, so out-of-range numerals and "-1" reach the
// stream too — and checks the followers against the leader's store fold.
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

// TestFollowerJournalsTheLeadersBytes: a durable follower tailing a
// durable leader through Handler and replica.Client ends with the leader's
// WAL file byte for byte, over the same seq range — through live polls of
// token batches that intern new names, a backlog the leader pages because
// it is past replica.TailPageBytes, and an id frame. The page the leader
// serves is application/octet-stream, and after its format byte it holds
// the leader's WAL bytes from the poll's position on.
func TestFollowerJournalsTheLeadersBytes(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader := persistentService(t, leaderDir)
	if err := leader.RegisterGraph("g", graph.New(3), map[string]int{"a": 0, "b": 1, "7": 2}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(leader))
	defer srv.Close()
	fol := persistentService(t, followerDir)
	wal := func(dir string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, "graphs", "g", "wal"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	synced := func() bool {
		lseq, _, err := leader.store.GraphPos("g")
		fseq, _, ok := fol.GraphPos("g")
		return err == nil && ok && fseq == lseq
	}

	f := startFollower(t, fol, srv.URL, "bytes")
	waitFor(t, 10*time.Second, synced, "the follower to bootstrap at seq 0")
	for i := range 5 {
		edges := []EdgeSpec{{From: "a", Label: "k", To: fmt.Sprintf("new%d", i)}, {From: fmt.Sprintf("new%d", i), Label: "k", To: "7"}}
		if _, err := leader.AddEdges(ctx, "g", edges); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, synced, "the follower to apply a live batch")
	}
	f.kill()

	// The backlog: five batches of about 1 MiB, their names 60 000 bytes.
	long := strings.Repeat("x", 60000)
	for b := range 5 {
		var edges []EdgeSpec
		for e := range 8 {
			edges = append(edges, EdgeSpec{From: fmt.Sprintf("%d.%d.%s", b, e, long), Label: "k", To: fmt.Sprintf("%s.%d.%d", long, b, e)})
		}
		if _, err := leader.AddEdges(ctx, "g", edges); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.store.Log("g").AppendEdges([]graph.Edge{{From: 2, Label: "k", To: 90}}); err != nil {
		t.Fatal(err)
	}

	from, epoch, _ := fol.GraphPos("g")
	resp, err := http.Get(fmt.Sprintf("%s/v1/replica/wal?graph=g&from=%d&epoch=%d", srv.URL, from, epoch))
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("the tail answered %s", ct)
	}
	if resp.Header.Get("X-Cfpq-Remaining-Bytes") == "0" {
		t.Fatal("the backlog fit one page: it should be cut by the page cap")
	}
	lw, fw := wal(leaderDir), wal(followerDir)
	if !bytes.HasPrefix(lw, fw) || len(page) < 2 || !bytes.Equal(page[1:], lw[len(fw):len(fw)+len(page)-1]) {
		t.Fatalf("the page's %d bytes after its format byte are not the leader's WAL after the follower's %d", len(page)-1, len(fw))
	}

	startFollower(t, fol, srv.URL, "bytes")
	waitFor(t, 30*time.Second, synced, "the follower to page through the backlog")
	if lw, fw := wal(leaderDir), wal(followerDir); !bytes.Equal(lw, fw) {
		t.Fatalf("the follower's WAL (%d bytes) is not the leader's (%d bytes)", len(fw), len(lw))
	}
}

package main

// The gen layer: everything the benchmark makes for itself. Inputs are
// built here from the seed and handed to the program under test as bytes;
// expected answers come from internal/baseline's Hellings worklist (and a
// plain BFS for the RPQ class), never from the matrix engine.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"cfpq/internal/baseline"
	"cfpq/internal/dataset"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/graphgen"
	"cfpq/internal/matrix"
)

const (
	dyckName   = "dyck"
	dyckText   = "S -> a S b | a b\n"
	query1Name = "query1"
	startNT    = "S"
	rpqExpr    = "subClassOf+"
	rpqLabel   = "subClassOf"
	pageLimit  = 1000
)

// The op classes of the read mix and the cold cases, in the order every
// table prints them. Per-class and per-case metric names expand over these.
var (
	readClasses = []string{"exists", "count", "pairs_from", "pairs_page", "rpq_from"}
	allCases    = []string{"chain10k", "cycle32", "grid4096", "sf100k", "g3q1"}
)

// sizes are the input dimensions; smoke shrinks them so the whole harness
// runs inside `go test` in seconds.
type sizes struct {
	chainNodes, chainDepth int
	cycleNodes, cycleDepth int
	gridNodes              int
	sfNodes                int
	ontology               string
}

var (
	fullSizes  = sizes{10_000, 512, 10_000, 32, 4096, 100_000, "g3"}
	smokeSizes = sizes{400, 24, 400, 6, 256, 1500, "skos"}
)

// input is one (graph, grammar) case as uploaded and as the oracle sees it.
type input struct {
	name        string // case name, also the graph's registry name
	grammarName string
	grammarText string
	cnf         *grammar.CNF
	g           *graph.Graph // oracle-side graph; node id i is named names[i]
	names       []string
	edgeList    []byte // the upload document
	relation    []matrix.Pair
}

func nodeName(id int) string { return fmt.Sprintf("n%d", id) }

func newInput(name string, g *graph.Graph, gramName, gramText string) (*input, error) {
	gr, err := grammar.ParseString(gramText)
	if err != nil {
		return nil, fmt.Errorf("gen: grammar %s: %w", gramName, err)
	}
	cnf, err := grammar.ToCNF(gr)
	if err != nil {
		return nil, fmt.Errorf("gen: grammar %s: %w", gramName, err)
	}
	names := make([]string, g.Nodes())
	for i := range names {
		names[i] = nodeName(i)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g, names); err != nil {
		return nil, err
	}
	return &input{name: name, grammarName: gramName, grammarText: gramText, cnf: cnf,
		g: g, names: names, edgeList: buf.Bytes()}, nil
}

// solve fills the expected relation with the independent oracle.
func (in *input) solve() {
	in.relation = baseline.Hellings(in.g, in.cnf)[startNT]
}

func genCase(name string, sz sizes, seed int64) (*input, error) {
	spec := map[string]graphgen.Spec{
		"chain10k": {Kind: graphgen.KindChain, Nodes: sz.chainNodes, Depth: sz.chainDepth},
		"cycle32":  {Kind: graphgen.KindCycle, Nodes: sz.cycleNodes, Depth: sz.cycleDepth},
		"grid4096": {Kind: graphgen.KindGrid, Nodes: sz.gridNodes},
		"sf100k":   {Kind: graphgen.KindScaleFree, Nodes: sz.sfNodes, Degree: 3, Seed: seed},
	}
	if name == "g3q1" {
		d, ok := dataset.ByName(sz.ontology)
		if !ok {
			return nil, fmt.Errorf("gen: unknown dataset %q", sz.ontology)
		}
		return newInput(name, d.Build(), query1Name, dataset.Query1().String())
	}
	s, ok := spec[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown case %q", name)
	}
	g, err := graphgen.Generate(s)
	if err != nil {
		return nil, err
	}
	return newInput(name, g, dyckName, dyckText)
}

// relationIndex answers membership and per-source questions on a relation.
type relationIndex struct {
	rows map[int][]int
	set  map[matrix.Pair]bool
}

func indexRelation(pairs []matrix.Pair) *relationIndex {
	ri := &relationIndex{rows: map[int][]int{}, set: make(map[matrix.Pair]bool, len(pairs))}
	for _, p := range pairs {
		ri.rows[p.I] = append(ri.rows[p.I], p.J)
		ri.set[p] = true
	}
	return ri
}

// reachPlus is the oracle of the RPQ class: the nodes reachable from src
// over one or more edges with the label.
func reachPlus(adj *graph.Adjacency, label string, src int) []int {
	seen := map[int]bool{}
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range adj.Out(v) {
			if e.Label == label && !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// readOp is one request of the read mix, by node id on the oracle graph.
type readOp struct {
	class    string
	src, dst int
}

func (op readOp) String() string { return fmt.Sprintf("%s %d %d", op.class, op.src, op.dst) }

// readMix yields the seeded op stream of one client: 40 % exists, 35 %
// pairs_from, 5 % count, 10 % pairs_page, 10 % rpq_from. Half the exists
// ops ask for a pair that holds, so both answers are exercised.
type readMix struct {
	rng   *rand.Rand
	nodes int
	rel   *relationIndex
	srcs  []int // sources with at least one pair, sorted
}

func newReadMix(seed int64, client int, in *input, rel *relationIndex) *readMix {
	srcs := make([]int, 0, len(rel.rows))
	for s := range rel.rows {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	return &readMix{rng: rand.New(rand.NewSource(seed*1000 + int64(client))), nodes: in.g.Nodes(), rel: rel, srcs: srcs}
}

func (m *readMix) next() readOp {
	r := m.rng.Intn(100)
	switch {
	case r < 40:
		if m.rng.Intn(2) == 0 && len(m.srcs) > 0 {
			s := m.srcs[m.rng.Intn(len(m.srcs))]
			row := m.rel.rows[s]
			return readOp{"exists", s, row[m.rng.Intn(len(row))]}
		}
		return readOp{"exists", m.rng.Intn(m.nodes), m.rng.Intn(m.nodes)}
	case r < 75:
		return readOp{"pairs_from", m.rng.Intn(m.nodes), 0}
	case r < 80:
		return readOp{"count", 0, 0}
	case r < 90:
		return readOp{"pairs_page", 0, 0}
	default:
		return readOp{"rpq_from", m.rng.Intn(m.nodes), 0}
	}
}

// pacedMix is the reader beside the writer: exists and pairs_from, 50/50.
func (m *readMix) nextPaced() readOp {
	if m.rng.Intn(2) == 0 {
		return readOp{"exists", m.rng.Intn(m.nodes), m.rng.Intn(m.nodes)}
	}
	return readOp{"pairs_from", m.rng.Intn(m.nodes), 0}
}

// batchGen yields the seeded write batches: one subClassOf edge between
// two existing nodes plus its inverse. A new node would invalidate the
// served index and turn the write into a cold build. One stream serves a
// whole run: every server lifetime starts again from the uploaded graph and
// takes the next batches, so no edge is ever offered twice.
type batchGen struct {
	rng  *rand.Rand
	seen *graph.Graph // the uploaded graph plus every batch handed out
}

func newBatchGen(seed int64, g *graph.Graph) *batchGen {
	return &batchGen{rng: rand.New(rand.NewSource(seed*1000 + 500)), seen: g.Clone()}
}

func (b *batchGen) next() []graph.Edge {
	for {
		x, y := b.rng.Intn(b.seen.Nodes()), b.rng.Intn(b.seen.Nodes())
		if x == y || b.seen.HasEdge(x, rpqLabel, y) {
			continue
		}
		batch := []graph.Edge{{From: x, Label: rpqLabel, To: y}, {From: y, Label: rpqLabel + graph.InverseSuffix, To: x}}
		for _, e := range batch {
			b.seen.AddEdge(e.From, e.Label, e.To)
		}
		return batch
	}
}

// incOracle is the Hellings worklist kept alive across edge batches, so the
// pairs each batch derives are known before the batch is sent. Every derived
// triple remembers the batch that produced it (0 = the initial graph), which
// lets a read racing a write be checked against the two states it may see.
// Its final state is cross-checked against baseline.Hellings on the full
// edge set, so it never vouches for itself.
type incOracle struct {
	mu    sync.RWMutex
	n     int
	cnf   *grammar.CNF
	start int
	ver   int
	has   []map[int32]int // [a*n+u][v] = version that derived (A,u,v)
	inv   [][]int32       // [a*n+v] = every u with (A,u,v)
	byB   [][][2]int32    // rules A → B C indexed by B: {A, C}
	byC   [][][2]int32    // and by C: {A, B}
}

func newIncOracle(g *graph.Graph, cnf *grammar.CNF) *incOracle {
	n, nn := g.Nodes(), cnf.NonterminalCount()
	o := &incOracle{n: n, cnf: cnf, start: cnf.MustIndex(startNT),
		has: make([]map[int32]int, nn*n), inv: make([][]int32, nn*n),
		byB: make([][][2]int32, nn), byC: make([][][2]int32, nn)}
	for _, r := range cnf.Binary {
		o.byB[r.B] = append(o.byB[r.B], [2]int32{int32(r.A), int32(r.C)})
		o.byC[r.C] = append(o.byC[r.C], [2]int32{int32(r.A), int32(r.B)})
	}
	o.close(g.Edges())
	return o
}

// addBatch folds one batch in and returns the start-symbol pairs it derived.
func (o *incOracle) addBatch(edges []graph.Edge) []matrix.Pair {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ver++
	return o.close(edges)
}

func (o *incOracle) close(edges []graph.Edge) []matrix.Pair {
	type triple struct{ a, u, v int32 }
	var work []triple
	var fresh []matrix.Pair
	add := func(a, u, v int32) {
		idx := int(a)*o.n + int(u)
		if o.has[idx] == nil {
			o.has[idx] = map[int32]int{}
		}
		if _, ok := o.has[idx][v]; ok {
			return
		}
		o.has[idx][v] = o.ver
		o.inv[int(a)*o.n+int(v)] = append(o.inv[int(a)*o.n+int(v)], u)
		work = append(work, triple{a, u, v})
		if int(a) == o.start {
			fresh = append(fresh, matrix.Pair{I: int(u), J: int(v)})
		}
	}
	for _, e := range edges {
		for _, a := range o.cnf.TermRules[e.Label] {
			add(int32(a), int32(e.From), int32(e.To))
		}
	}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		for _, rc := range o.byB[t.a] {
			for w := range o.has[int(rc[1])*o.n+int(t.v)] {
				add(rc[0], t.u, w)
			}
		}
		for _, rb := range o.byC[t.a] {
			for _, w := range o.inv[int(rb[1])*o.n+int(t.u)] {
				add(rb[0], w, t.v)
			}
		}
	}
	return fresh
}

// row returns the targets of src that hold at version lo (must be in an
// answer) and those that hold at version hi (may be in it).
func (o *incOracle) row(src, lo, hi int) (must map[int]bool, may map[int]bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	must, may = map[int]bool{}, map[int]bool{}
	for v, ver := range o.has[o.start*o.n+src] {
		if ver <= lo {
			must[int(v)] = true
		}
		if ver <= hi {
			may[int(v)] = true
		}
	}
	return must, may
}

// pairsSince lists the start-symbol pairs derived after version ver.
func (o *incOracle) pairsSince(ver int) []matrix.Pair {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var out []matrix.Pair
	for u := 0; u < o.n; u++ {
		for v, pv := range o.has[o.start*o.n+u] {
			if pv > ver {
				out = append(out, matrix.Pair{I: u, J: int(v)})
			}
		}
	}
	return out
}

func (o *incOracle) count() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	total := 0
	for u := 0; u < o.n; u++ {
		total += len(o.has[o.start*o.n+u])
	}
	return total
}

// Pins. The digests below are the seed-1 inputs at full size; a run at
// seed 1 refuses to start if what it generated differs, so an edit to
// internal/graphgen or internal/dataset cannot silently change what is
// measured. The deterministic cases are pinned at every seed.
const (
	pinnedReadOps = 10_000
	pinnedBatches = 400
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func readOpsDigest(seed int64, in *input, rel *relationIndex) string {
	var buf bytes.Buffer
	for client := 0; client < 2; client++ {
		m := newReadMix(seed, client, in, rel)
		for i := 0; i < pinnedReadOps; i++ {
			fmt.Fprintln(&buf, m.next())
		}
	}
	return digest(buf.Bytes())
}

func batchesDigest(seed int64, g *graph.Graph) string {
	var buf bytes.Buffer
	bg := newBatchGen(seed, g)
	for i := 0; i < pinnedBatches; i++ {
		for _, e := range bg.next() {
			fmt.Fprintf(&buf, "%d %s %d\n", e.From, e.Label, e.To)
		}
	}
	return digest(buf.Bytes())
}

// checkPin compares one generated artifact with its recorded digest. Pins
// exist for full-size inputs only; seeded artifacts are pinned at seed 1.
func checkPin(pins map[string]string, key, got string) error {
	want, ok := pins[key]
	if !ok {
		return fmt.Errorf("gen: no pin recorded for %s (generated %s)", key, got)
	}
	if want != got {
		return fmt.Errorf("gen: %s changed: generated sha256 %s, pinned %s", key, got, want)
	}
	return nil
}

// computePins regenerates every pinned artifact at seed 1 and full size;
// `-pins` prints the result, which is how pins.json is made and remade
// when an input is changed on purpose.
func computePins() (map[string]string, error) {
	pins := map[string]string{}
	for _, name := range allCases {
		in, err := genCase(name, fullSizes, 1)
		if err != nil {
			return nil, err
		}
		pins[name] = digest(in.edgeList)
		if name == "g3q1" {
			in.solve()
			pins["read_ops"] = readOpsDigest(1, in, indexRelation(in.relation))
			pins["edge_batches"] = batchesDigest(1, in.g)
		}
	}
	return pins, nil
}

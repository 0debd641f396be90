// Package graph implements edge-labelled directed multigraphs — the data
// model of context-free path querying — together with an N-Triples
// reader/writer, RDF expansion with inverse edges (as used in the paper's
// evaluation), graph algebra, and synthetic generators.
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Edge is a labelled directed edge (From, Label, To) ∈ V × Σ × V.
type Edge struct {
	From  int
	Label string
	To    int
}

// Graph is an edge-labelled directed multigraph with nodes 0..N-1.
// Adjacency is stored per label, which is the access pattern of every CFPQ
// algorithm (initialisation scans edges by label).
type Graph struct {
	n       int
	byLabel map[string][]Edge
	edges   int
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, byLabel: map[string][]Edge{}}
}

// FromLabelLists returns an n-node graph that adopts lists, without a
// copy, as its per-label edge lists. Each list is non-empty, its edges
// carry one label, no two lists share it, and endpoints lie in [0, n).
func FromLabelLists(n int, lists [][]Edge) *Graph {
	g := New(n)
	for _, es := range lists {
		g.byLabel[es[0].Label] = es
		g.edges += len(es)
	}
	return g
}

// Nodes returns the number of nodes.
func (g *Graph) Nodes() int { return g.n }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return g.edges }

// EnsureNode grows the graph so that node v exists.
func (g *Graph) EnsureNode(v int) {
	if v >= g.n {
		g.n = v + 1
	}
}

// AddEdge inserts the edge (from, label, to), growing the node set if
// needed. Parallel edges (same endpoints, same label) are kept: the graph is
// a multigraph, exactly as in the paper's initialisation step which unions
// contributions from multiple edges.
func (g *Graph) AddEdge(from int, label string, to int) {
	if from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: negative node in edge (%d,%s,%d)", from, label, to))
	}
	g.EnsureNode(from)
	g.EnsureNode(to)
	g.byLabel[label] = append(g.byLabel[label], Edge{From: from, Label: label, To: to})
	g.edges++
}

// Labels returns the sorted set of edge labels present in the graph.
func (g *Graph) Labels() []string {
	out := make([]string, 0, len(g.byLabel))
	for l := range g.byLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// EdgesWithLabel returns the edges carrying the given label. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) EdgesWithLabel(label string) []Edge {
	return g.byLabel[label]
}

// Edges returns all edges, grouped by label in sorted label order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for _, l := range g.Labels() {
		out = append(out, g.byLabel[l]...)
	}
	return out
}

// HasEdge reports whether an edge (from, label, to) exists.
func (g *Graph) HasEdge(from int, label string, to int) bool {
	for _, e := range g.byLabel[label] {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	lists := make([][]Edge, 0, len(g.byLabel))
	for _, es := range g.byLabel {
		lists = append(lists, slices.Clone(es))
	}
	return FromLabelLists(g.n, lists)
}

// Fork returns a graph with g's nodes and edges that may be extended while
// other goroutines keep reading g, in O(labels): the per-label edge lists
// are append-only, so the fork shares them and its appends land beyond the
// lengths g reads (or in a reallocated list). g must not be mutated after
// it has been forked — its own appends could claim the slots the fork's
// did — which is exactly how a serving layer uses it: g is the published
// version, the fork the next one.
func (g *Graph) Fork() *Graph {
	return &Graph{n: g.n, byLabel: maps.Clone(g.byLabel), edges: g.edges}
}

// DisjointUnion appends a copy of other to g, shifting other's node ids by
// g.Nodes(). It returns the shift applied, so callers can map other's node
// ids into the combined graph.
func (g *Graph) DisjointUnion(other *Graph) int {
	shift := g.n
	g.n += other.n
	for l, es := range other.byLabel {
		for _, e := range es {
			g.byLabel[l] = append(g.byLabel[l], Edge{From: e.From + shift, Label: l, To: e.To + shift})
			g.edges++
		}
	}
	return shift
}

// Repeat returns k disjoint copies of g as one graph. The paper builds its
// synthetic graphs g1, g2, g3 "simply repeating the existing graphs"; this
// is that operation.
func Repeat(g *Graph, k int) *Graph {
	if k < 1 {
		panic("graph: Repeat requires k >= 1")
	}
	out := New(0)
	for i := 0; i < k; i++ {
		out.DisjointUnion(g)
	}
	return out
}

// Stats summarises a graph for reports.
type Stats struct {
	Nodes  int
	Edges  int
	Labels int
}

// Stats returns summary statistics.
func (g *Graph) Stats() Stats {
	return Stats{Nodes: g.n, Edges: g.edges, Labels: len(g.byLabel)}
}

// String renders a short description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d, labels: %d}", g.n, g.edges, len(g.byLabel))
}

// Adjacency is a per-node out-edge index over a Graph, used by worklist
// algorithms (Hellings, GLL) that traverse from nodes rather than scanning
// label lists.
type Adjacency struct {
	out [][]Edge
	in  [][]Edge
}

// NewAdjacency builds the index.
func NewAdjacency(g *Graph) *Adjacency {
	a := &Adjacency{
		out: make([][]Edge, g.n),
		in:  make([][]Edge, g.n),
	}
	for _, l := range g.Labels() {
		for _, e := range g.byLabel[l] {
			a.out[e.From] = append(a.out[e.From], e)
			a.in[e.To] = append(a.in[e.To], e)
		}
	}
	return a
}

// Out returns the out-edges of v.
func (a *Adjacency) Out(v int) []Edge { return a.out[v] }

// In returns the in-edges of v.
func (a *Adjacency) In(v int) []Edge { return a.in[v] }

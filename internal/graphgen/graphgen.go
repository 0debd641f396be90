// Package graphgen builds the synthetic scale-tier benchmark graphs: a
// family of deterministic topologies over the two-label alphabet {a, b}
// that stress the closure in different ways at 10⁴–10⁶ nodes, all
// recognisable by the Dyck-style grammar S → a S b | a b.
//
// The topology lives at the scale of Depth (or √Nodes) while the matrix
// lives at the scale of Nodes: every generator pads with isolated nodes up
// to the requested size, so the benchmarks separate "cost of the work"
// from "cost of the representation" — exactly the axis on which CSR sparse
// and dense bitset matrices differ.
package graphgen

import (
	"fmt"
	"math"
	"math/rand"

	"cfpq/internal/graph"
)

// Kind names one synthetic topology family.
type Kind string

const (
	// KindChain is the word a^(n-1-d) b^d on a directed chain: context-free
	// recognition of a linear word (Valiant's setting), whose closure runs
	// exactly Depth derivation levels deep.
	KindChain Kind = "chain"
	// KindCycle is the classic CFPQ worst case: two coprime cycles (lengths
	// Depth and Depth+1) sharing node 0, the first labelled a, the second
	// b. The closure needs ~Depth² iterations to reach its fixpoint, which
	// is why Depth is capped harder for this kind.
	KindCycle Kind = "cycle"
	// KindGrid is a k×k lattice (k = ⌊√Nodes⌋) with right-edges labelled a
	// and down-edges labelled b: a planar, bounded-degree topology with
	// O(k³) result pairs.
	KindGrid Kind = "grid"
	// KindScaleFree is a seeded Barabási–Albert preferential-attachment
	// graph with labels drawn uniformly from {a, b}: a few hub rows carry
	// most of the SpGEMM work.
	KindScaleFree Kind = "scale-free"
)

// Kinds lists every topology family, in the order the benchmarks report.
func Kinds() []Kind {
	return []Kind{KindChain, KindCycle, KindGrid, KindScaleFree}
}

// maxChainDepth bounds the closure's derivation depth (its iteration
// count) so the dense backend stays feasible at 10⁴ nodes and above.
const maxChainDepth = 512

// maxCycleDepth bounds the two-cycle worst case, whose fixpoint takes
// ~Depth² closure iterations rather than Depth.
const maxCycleDepth = 32

// Spec describes one synthetic graph. The zero values of everything but
// Kind and Nodes choose sensible defaults (see normalize).
type Spec struct {
	Kind  Kind
	Nodes int
	// Depth is the derivation depth the chain and cycle kinds force
	// (default min(Nodes/2, 512); the cycle kind caps it at 32 — see
	// KindCycle). Ignored by grid and scale-free.
	Depth int
	// Degree is the out-degree of scale-free nodes (default 3). Ignored
	// by the deterministic kinds.
	Degree int
	// Seed drives the scale-free attachment and labelling (default 1).
	Seed int64
}

// normalize fills defaults and clamps Depth to what the topology can hold.
func (s Spec) normalize() Spec {
	if s.Depth <= 0 {
		s.Depth = s.Nodes / 2
	}
	if s.Depth > maxChainDepth {
		s.Depth = maxChainDepth
	}
	if d := (s.Nodes - 1) / 2; s.Depth > d {
		s.Depth = d
	}
	if s.Kind == KindCycle && s.Depth > maxCycleDepth {
		s.Depth = maxCycleDepth
	}
	if s.Degree <= 0 {
		s.Degree = 3
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Generate builds the graph a Spec describes. Generation is deterministic:
// equal Specs produce equal graphs.
func Generate(s Spec) (*graph.Graph, error) {
	if s.Nodes < 4 {
		return nil, fmt.Errorf("graphgen: %d nodes is below the minimum of 4", s.Nodes)
	}
	s = s.normalize()
	switch s.Kind {
	case KindChain:
		return chain(s), nil
	case KindCycle:
		return twoCycles(s), nil
	case KindGrid:
		return grid(s), nil
	case KindScaleFree:
		return graph.PreferentialAttachment(rand.New(rand.NewSource(s.Seed)), s.Nodes, s.Degree, []string{"a", "b"}), nil
	default:
		return nil, fmt.Errorf("graphgen: unknown kind %q", s.Kind)
	}
}

// chain spells a^(m) b^d along nodes 0..m+d where m = Nodes-1-Depth, so
// the single deepest match is the Depth-level derivation a^d b^d.
func chain(s Spec) *graph.Graph {
	g := graph.New(s.Nodes)
	m := s.Nodes - 1 - s.Depth
	for i := 0; i < m; i++ {
		g.AddEdge(i, "a", i+1)
	}
	for i := m; i < s.Nodes-1; i++ {
		g.AddEdge(i, "b", i+1)
	}
	return g
}

// twoCycles embeds graph.TwoCycles(Depth, Depth+1) — consecutive lengths,
// hence coprime — in the low 2·Depth node ids and leaves the rest of the
// matrix as isolated padding.
func twoCycles(s Spec) *graph.Graph {
	g := graph.New(s.Nodes)
	m := s.Depth
	for i := 0; i < m; i++ {
		g.AddEdge(i, "a", (i+1)%m)
	}
	// b-cycle of length m+1 through node 0: 0 → m → m+1 → … → 2m-1 → 0.
	prev := 0
	for i := 0; i < m; i++ {
		g.AddEdge(prev, "b", m+i)
		prev = m + i
	}
	g.AddEdge(prev, "b", 0)
	return g
}

// grid lays out a k×k lattice row-major in the low k² node ids, a to the
// right and b downward.
func grid(s Spec) *graph.Graph {
	k := int(math.Sqrt(float64(s.Nodes)))
	g := graph.New(s.Nodes)
	id := func(r, c int) int { return r*k + c }
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			if c+1 < k {
				g.AddEdge(id(r, c), "a", id(r, c+1))
			}
			if r+1 < k {
				g.AddEdge(id(r, c), "b", id(r+1, c))
			}
		}
	}
	return g
}

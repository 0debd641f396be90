package graph

import (
	"fmt"
	"math/rand"
)

// Chain returns a directed chain 0 → 1 → … → n-1 with every edge labelled
// label. A chain is exactly Valiant's setting: CFPQ over a chain is
// context-free recognition of a linear word.
func Chain(n int, label string) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, label, i+1)
	}
	return g
}

// Word returns a chain spelling the given word: node i connects to node i+1
// with label word[i]. CFPQ relations on Word(w) from node 0 to node len(w)
// coincide with string recognition of w.
func Word(word []string) *Graph {
	g := New(len(word) + 1)
	for i, l := range word {
		g.AddEdge(i, l, i+1)
	}
	return g
}

// Cycle returns a directed cycle of n nodes with the given label. Cyclic
// graphs are the case Valiant's original algorithm cannot handle and the
// paper's closure can.
func Cycle(n int, label string) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, label, (i+1)%n)
	}
	return g
}

// TwoCycles returns the classic worst-case CFPQ instance: two cycles of
// coprime lengths m and n sharing node 0, the first labelled a, the second
// labelled b. Querying S → a S b | a b on it produces a dense result.
func TwoCycles(m, n int, a, b string) *Graph {
	g := New(m + n - 1)
	// Cycle 0 →a→ 1 →a→ … →a→ m-1 →a→ 0.
	for i := 0; i < m; i++ {
		g.AddEdge(i, a, (i+1)%m)
	}
	// Cycle 0 →b→ m →b→ m+1 →b→ … →b→ m+n-2 →b→ 0.
	prev := 0
	for i := 0; i < n-1; i++ {
		g.AddEdge(prev, b, m+i)
		prev = m + i
	}
	g.AddEdge(prev, b, 0)
	return g
}

// CompleteBipartite returns edges from each of the first m nodes to each of
// the last n nodes, labelled label.
func CompleteBipartite(m, n int, label string) *Graph {
	g := New(m + n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g.AddEdge(i, label, m+j)
		}
	}
	return g
}

// Random returns a uniform random labelled graph: n nodes, e edges, labels
// drawn uniformly from labels. Deterministic for a given rng state.
func Random(rng *rand.Rand, n, e int, labels []string) *Graph {
	if n <= 0 || len(labels) == 0 {
		panic("graph: Random requires nodes and labels")
	}
	g := New(n)
	for i := 0; i < e; i++ {
		g.AddEdge(rng.Intn(n), labels[rng.Intn(len(labels))], rng.Intn(n))
	}
	return g
}

// PreferentialAttachment generates a scale-free directed graph: nodes
// arrive one at a time and attach m edges to existing nodes with
// probability proportional to their current degree (Barabási–Albert).
// Labels are drawn uniformly. Scale-free degree distributions skew SpGEMM
// work: a few rows carry most of it.
func PreferentialAttachment(rng *rand.Rand, n, m int, labels []string) *Graph {
	if n < 2 || m < 1 || len(labels) == 0 {
		panic("graph: PreferentialAttachment requires n ≥ 2, m ≥ 1 and labels")
	}
	g := New(n)
	// targets holds one entry per edge endpoint, so sampling uniformly
	// from it is degree-proportional sampling.
	targets := []int{0}
	for v := 1; v < n; v++ {
		k := m
		if k > v {
			k = v
		}
		chosen := map[int]bool{}
		for len(chosen) < k {
			t := targets[rng.Intn(len(targets))]
			if t == v || chosen[t] {
				// Rejection keeps the multigraph simple per new node.
				if len(chosen) >= v {
					break
				}
				continue
			}
			chosen[t] = true
			g.AddEdge(v, labels[rng.Intn(len(labels))], t)
			targets = append(targets, t)
		}
		targets = append(targets, v)
	}
	return g
}

// OntologyConfig shapes SyntheticOntology.
type OntologyConfig struct {
	// Classes is the number of classes in the subClassOf hierarchy.
	Classes int
	// MaxBranch bounds the fan-out when attaching a class to a parent.
	MaxBranch int
	// Instances is the number of individuals, each attached to 1..MaxTypes
	// classes with type edges.
	Instances int
	// MaxTypes bounds the number of type edges per instance.
	MaxTypes int
	// Seed makes the generator deterministic.
	Seed int64
}

// SyntheticOntology generates an RDF-like triple set shaped like the
// ontologies in the paper's dataset: a subClassOf tree over classes plus
// type edges from instances to classes. The paper's queries (same-layer and
// adjacent-layer, Figures 10 and 11) only inspect this structure, so graphs
// generated here exercise the same code paths as the original RDF files.
func SyntheticOntology(cfg OntologyConfig) []Triple {
	if cfg.Classes < 1 {
		panic("graph: SyntheticOntology requires at least one class")
	}
	if cfg.MaxBranch < 1 {
		cfg.MaxBranch = 3
	}
	if cfg.MaxTypes < 1 {
		cfg.MaxTypes = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var triples []Triple
	class := func(i int) string { return fmt.Sprintf("class%d", i) }
	inst := func(i int) string { return fmt.Sprintf("inst%d", i) }
	// Class hierarchy: each class i ≥ 1 picks a parent among earlier
	// classes, biased toward recent ones to get realistic depth.
	for i := 1; i < cfg.Classes; i++ {
		lo := i - cfg.MaxBranch*2
		if lo < 0 {
			lo = 0
		}
		parent := lo + rng.Intn(i-lo)
		triples = append(triples, Triple{
			Subject:   class(i),
			Predicate: "subClassOf",
			Object:    class(parent),
		})
	}
	for i := 0; i < cfg.Instances; i++ {
		k := 1 + rng.Intn(cfg.MaxTypes)
		for j := 0; j < k; j++ {
			triples = append(triples, Triple{
				Subject:   inst(i),
				Predicate: "type",
				Object:    class(rng.Intn(cfg.Classes)),
			})
		}
	}
	return triples
}

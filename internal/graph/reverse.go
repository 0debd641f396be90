package graph

// Reverse returns the graph with every edge flipped (labels unchanged).
func Reverse(g *Graph) *Graph {
	out := New(g.n)
	for l, es := range g.byLabel {
		for _, e := range es {
			out.AddEdge(e.To, l, e.From)
		}
	}
	return out
}

package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Edge-list format: the minimal labelled-graph text format, one edge per
// line as three whitespace-separated fields
//
//	from label to
//
// with '#' comments and blank lines skipped. Node fields are arbitrary
// (whitespace-free) names, interned to ids in first-appearance order, so
// the format round-trips through the same (Graph, name map) pair as the
// N-Triples loader. Unlike the N-Triples loader no inverse edges are
// synthesised: the file says exactly which edges exist.

// ParseEdgeList reads an edge-list document into a list of edges over node
// names (not yet interned to ids).
func ParseEdgeList(r io.Reader) ([][3]string, error) {
	var out [][3]string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("edgelist: line %d: expected 3 fields (from label to), got %d in %q",
				lineNo, len(fields), line)
		}
		out = append(out, [3]string{fields[0], fields[1], fields[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("edgelist: read: %w", err)
	}
	return out, nil
}

// LoadEdgeList reads an edge-list document into a graph, interning node
// names in first-appearance order; the returned map gives node id ← name.
func LoadEdgeList(r io.Reader) (*Graph, map[string]int, error) {
	rows, err := ParseEdgeList(r)
	if err != nil {
		return nil, nil, err
	}
	ids := map[string]int{}
	intern := func(name string) int {
		if id, ok := ids[name]; ok {
			return id
		}
		id := len(ids)
		ids[name] = id
		return id
	}
	g := New(0)
	for _, row := range rows {
		g.AddEdge(intern(row[0]), row[1], intern(row[2]))
	}
	return g, ids, nil
}

// WriteEdgeList writes the graph in edge-list syntax. Node ids are rendered
// through names when a name table is supplied (ids without a name, or a nil
// table, fall back to the decimal id).
func WriteEdgeList(w io.Writer, g *Graph, names []string) error {
	bw := bufio.NewWriter(w)
	t := Names{byID: names} // rendering reads only the id → name side
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n", t.Name(e.From), e.Label, t.Name(e.To)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

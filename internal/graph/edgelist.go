package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
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

// LoadEdgeList reads an edge-list document into a graph, interning node
// names in first-appearance order; the returned map gives node id ← name.
// In one pass over the scanner's bytes, a known node costs a map lookup and
// no allocation, and each label is one string.
func LoadEdgeList(r io.Reader) (*Graph, map[string]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	ids := map[string]int{}
	node := func(name []byte) int {
		if id, ok := ids[string(name)]; ok {
			return id
		}
		ids[string(name)] = len(ids)
		return len(ids) - 1
	}
	type labelled struct {
		label string
		edges []Edge
	}
	byLabel := map[string]*labelled{}
	for lineNo := 1; sc.Scan(); lineNo++ {
		f, n := fields(sc.Bytes())
		if n == 0 || f[0][0] == '#' {
			continue
		}
		if n != 3 {
			return nil, nil, fmt.Errorf("edgelist: line %d: expected 3 fields (from label to), got %d in %q",
				lineNo, n, strings.TrimSpace(sc.Text()))
		}
		cur := byLabel[string(f[1])]
		if cur == nil {
			cur = &labelled{label: string(f[1])}
			byLabel[cur.label] = cur
		}
		from := node(f[0])
		cur.edges = append(cur.edges, Edge{From: from, Label: cur.label, To: node(f[2])})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("edgelist: read: %w", err)
	}
	lists := make([][]Edge, 0, len(byLabel))
	for _, c := range byLabel {
		lists = append(lists, c.edges)
	}
	return FromLabelLists(len(ids), lists), ids, nil
}

// fields splits a line as strings.Fields does, into its first three fields
// and its field count: in place if it is ASCII, else by strings.Fields, as
// a byte ≥ 0x80 may start Unicode whitespace.
func fields(line []byte) (f [3][]byte, n int) {
	for i, j := 0, 0; i < len(line); i = j + 1 {
		// Run j over [i, j) of ASCII bytes unicode.IsSpace rejects.
		for j = i; j < len(line) && line[j] < utf8.RuneSelf && line[j] != ' ' && line[j]-'\t' > '\r'-'\t'; j++ {
		}
		if j < len(line) && line[j] >= utf8.RuneSelf {
			all := strings.Fields(string(line))
			for k := 0; k < len(all) && k < len(f); k++ {
				f[k] = []byte(all[k])
			}
			return f, len(all)
		}
		if j > i {
			if n < len(f) {
				f[n] = line[i:j]
			}
			n++
		}
	}
	return f, n
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

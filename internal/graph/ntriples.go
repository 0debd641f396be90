package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Triple is an RDF triple (Subject, Predicate, Object) of IRI/literal
// strings, before conversion to graph node ids.
type Triple struct {
	Subject, Predicate, Object string
}

// ParseNTriples reads a (simplified) N-Triples document: one triple per
// line, three whitespace-separated terms terminated by '.', with IRIs in
// <angle brackets>, blank nodes as _:name, and literals in double quotes.
// Comments (#) and blank lines are skipped. This covers the RDF ontology
// files used in the paper's evaluation.
func ParseNTriples(r io.Reader) ([]Triple, error) {
	var out []Triple
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseTripleLine(line)
		if err != nil {
			return nil, fmt.Errorf("ntriples: line %d: %w", lineNo, err)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ntriples: read: %w", err)
	}
	return out, nil
}

func parseTripleLine(line string) (Triple, error) {
	terms, err := splitTerms(line)
	if err != nil {
		return Triple{}, err
	}
	if len(terms) != 3 {
		return Triple{}, fmt.Errorf("expected 3 terms, got %d in %q", len(terms), line)
	}
	return Triple{Subject: terms[0], Predicate: terms[1], Object: terms[2]}, nil
}

// splitTerms tokenizes a triple line, stripping the trailing '.' and the
// IRI/literal delimiters.
func splitTerms(line string) ([]string, error) {
	line = strings.TrimSpace(line)
	line = strings.TrimSuffix(line, ".")
	line = strings.TrimSpace(line)
	var terms []string
	i := 0
	for i < len(line) {
		switch {
		case line[i] == ' ' || line[i] == '\t':
			i++
		case line[i] == '<':
			j := strings.IndexByte(line[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("unterminated IRI in %q", line)
			}
			terms = append(terms, line[i+1:i+j])
			i += j + 1
		case line[i] == '"':
			j := i + 1
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated literal in %q", line)
			}
			lit := line[i+1 : j]
			j++
			// Skip any datatype/lang suffix (^^<...> or @lang).
			for j < len(line) && line[j] != ' ' && line[j] != '\t' {
				j++
			}
			terms = append(terms, lit)
			i = j
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' {
				j++
			}
			terms = append(terms, line[i:j])
			i = j
		}
	}
	return terms, nil
}

// WriteNTriples writes triples in N-Triples syntax, one per line, with all
// terms serialised as IRIs.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if _, err := fmt.Fprintf(bw, "<%s> <%s> <%s> .\n", t.Subject, t.Predicate, t.Object); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// InverseSuffix is appended to a predicate name to form the label of the
// reversed edge when RDF is expanded to a graph. The paper writes p⁻¹; we
// use "_r" so labels remain plain identifiers in grammar files.
const InverseSuffix = "_r"

// FromTriples converts RDF triples to an edge-labelled graph exactly as the
// paper does: "For each triple (o, p, s) from an RDF file, we added edges
// (o, p, s) and (s, p⁻¹, o) to the graph." Node ids are assigned in first
// appearance order; the returned map gives id ← IRI.
func FromTriples(triples []Triple) (*Graph, map[string]int) {
	ids := map[string]int{}
	intern := func(term string) int {
		if id, ok := ids[term]; ok {
			return id
		}
		id := len(ids)
		ids[term] = id
		return id
	}
	g := New(0)
	for _, t := range triples {
		o := intern(t.Subject)
		s := intern(t.Object)
		g.AddEdge(o, t.Predicate, s)
		g.AddEdge(s, t.Predicate+InverseSuffix, o)
	}
	return g, ids
}

// LoadNTriples reads an N-Triples document and expands it to a graph with
// inverse edges; the returned map gives node id ← IRI.
func LoadNTriples(r io.Reader) (*Graph, map[string]int, error) {
	triples, err := ParseNTriples(r)
	if err != nil {
		return nil, nil, err
	}
	g, ids := FromTriples(triples)
	return g, ids, nil
}

// NodeNames inverts an id map into a slice indexed by node id. Nodes without
// a name (none, when the map came from FromTriples) get empty strings.
func NodeNames(n int, ids map[string]int) []string {
	names := make([]string, n)
	for name, id := range ids {
		if id >= 0 && id < n {
			names[id] = name
		}
	}
	return names
}

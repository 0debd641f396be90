package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseNTriples feeds arbitrary text to the N-Triples parser: it must
// never panic, and — whenever the parsed terms are representable in the
// writer's all-IRI output syntax (no '>' inside a term, which the IRI
// delimiter cannot escape) — the triples must survive a write-parse round
// trip exactly.
func FuzzParseNTriples(f *testing.F) {
	f.Add("<a> <p> <b> .\n<b> <p> <c> .\n")
	f.Add("# comment\n\n<s> <p> \"a literal\" .\n")
	f.Add("_:blank <p> <x> .")
	f.Add("<s> <p> \"esc\\\"aped\"^^<type> .")
	f.Add("<s> <p> \"lang\"@en .")
	f.Add("malformed line without terms")
	f.Fuzz(func(t *testing.T, input string) {
		triples, err := ParseNTriples(strings.NewReader(input)) // must not panic
		if err != nil {
			return
		}
		representable := true
		for _, tr := range triples {
			if strings.ContainsAny(tr.Subject+tr.Predicate+tr.Object, ">\n\r") {
				representable = false
				break
			}
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, triples); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		if !representable {
			// Still must not panic on the reparse.
			_, _ = ParseNTriples(bytes.NewReader(buf.Bytes()))
			return
		}
		back, err := ParseNTriples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse failed: %v\nwritten:\n%s", err, buf.String())
		}
		if len(back) != len(triples) {
			t.Fatalf("round trip changed triple count: %d -> %d\nwritten:\n%s",
				len(triples), len(back), buf.String())
		}
		for i := range triples {
			if back[i] != triples[i] {
				t.Fatalf("round trip changed triple %d: %v -> %v", i, triples[i], back[i])
			}
		}
	})
}

// edgeListSeeds seed FuzzParseEdgeList and TestLoadEdgeListMatchesOracle.
var edgeListSeeds = []string{
	"a knows b\nb knows c\n",
	"# comment\n\nx\ty\tz\n",
	"1 p 2\n2 p 1\n",
	"too many fields here now",
}

// FuzzParseEdgeList feeds arbitrary text to the edge-list loader: it must
// never panic, it must agree with loadEdgeListOracle, and accepted input
// must round-trip through WriteEdgeList — the rendered form of the
// reloaded graph must be byte-identical to the rendered form of the first
// load (node names are whitespace-free by construction, so the written
// file is always re-readable).
func FuzzParseEdgeList(f *testing.F) {
	for _, seed := range edgeListSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, ids, err := LoadEdgeList(strings.NewReader(input)) // must not panic
		agreeWithOracle(t, input, g, ids, err)
		if err != nil {
			return
		}
		names := NodeNames(g.Nodes(), ids)
		var first bytes.Buffer
		if err := WriteEdgeList(&first, g, names); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		g2, ids2, err := LoadEdgeList(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload failed: %v\nwritten:\n%s", err, first.String())
		}
		if g2.Nodes() != g.Nodes() || g2.EdgeCount() != g.EdgeCount() {
			t.Fatalf("reload changed shape: %v -> %v", g.Stats(), g2.Stats())
		}
		var second bytes.Buffer
		if err := WriteEdgeList(&second, g2, NodeNames(g2.Nodes(), ids2)); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not stable:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

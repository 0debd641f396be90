package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestLoadEdgeList(t *testing.T) {
	src := `
# a comment
alice	knows	bob
bob knows carol
carol	likes	alice
`
	g, ids, err := LoadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 3 || g.EdgeCount() != 3 {
		t.Fatalf("got %v, want 3 nodes / 3 edges", g)
	}
	want := map[string]int{"alice": 0, "bob": 1, "carol": 2}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	if !g.HasEdge(ids["alice"], "knows", ids["bob"]) ||
		!g.HasEdge(ids["bob"], "knows", ids["carol"]) ||
		!g.HasEdge(ids["carol"], "likes", ids["alice"]) {
		t.Fatalf("edges missing: %v", g.Edges())
	}
}

// loadEdgeListOracle is the reference edge-list loader: each line is
// trimmed and split into strings by the strings package, the rows are
// collected, and only then are their node names interned.
func loadEdgeListOracle(r io.Reader) (*Graph, map[string]int, error) {
	var rows [][3]string
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
			return nil, nil, fmt.Errorf("edgelist: line %d: expected 3 fields (from label to), got %d in %q",
				lineNo, len(fields), line)
		}
		rows = append(rows, [3]string{fields[0], fields[1], fields[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("edgelist: read: %w", err)
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

// agreeWithOracle fails t unless LoadEdgeList's answer on input (g, ids,
// err) is loadEdgeListOracle's: the same error, or the same ids and the
// same edges, label by label in input order.
func agreeWithOracle(t *testing.T, input string, g *Graph, ids map[string]int, err error) {
	t.Helper()
	wg, wids, werr := loadEdgeListOracle(strings.NewReader(input))
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("LoadEdgeList(%.80q): error %v, oracle %v", input, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(ids, wids) {
		t.Fatalf("LoadEdgeList(%.80q): ids %q, oracle %q", input, ids, wids)
	}
	if g.Nodes() != wg.Nodes() || g.EdgeCount() != wg.EdgeCount() || !reflect.DeepEqual(g.Labels(), wg.Labels()) {
		t.Fatalf("LoadEdgeList(%.80q): %v, oracle %v", input, g, wg)
	}
	for _, l := range g.Labels() {
		if !reflect.DeepEqual(g.EdgesWithLabel(l), wg.EdgesWithLabel(l)) {
			t.Fatalf("LoadEdgeList(%.80q): label %q edges %v, oracle %v", input, l, g.EdgesWithLabel(l), wg.EdgesWithLabel(l))
		}
	}
}

// TestLoadEdgeListMatchesOracle holds the one-pass loader to the oracle on
// the fuzz seeds and on the inputs its ASCII fast path must hand to the
// strings package or treat exactly as it does: Unicode whitespace, CRLF
// line ends, tabs and the other ASCII spaces, comments after leading
// space, invalid UTF-8, and lines longer than the scanner's first buffer
// and than its limit.
func TestLoadEdgeListMatchesOracle(t *testing.T) {
	long := strings.Repeat("x", 70_000)
	inputs := append(slices.Clone(edgeListSeeds),
		"a\u00a0knows\u00a0b\n",             // NBSP separates fields
		"a knows\u0085b\nb knows c\u0085\n", // NEL separates, and trims
		"\u2003a knows b\u2003\n",           // EM SPACE trims
		"a\u2003knows b c\n",                // and counts as a separator
		"\u00a0# a comment after NBSP\nx y z\n",
		"ä knows ö\nö knows ä\n",
		"a knows b\r\nb knows c\r\n\r\n",
		"a\tknows\tb\n\t\tb\tlikes\tc\t\n",
		"\v\fa knows b\f\v\n",
		"   # comment after leading space\n \t# another\n x a y\n",
		"a knows b # not a comment\n",
		"a b\n",
		"a\xff b c\nc\xfe d\xfd\n", // invalid UTF-8
		"\xc2 x y\n",               // a truncated sequence
		"x a y\ny b z\nx a z\nz b x\ny a y\n",
		long+" knows "+long+"\n"+long+" likes b\n",
		"a knows b\n"+strings.Repeat("y", 1<<22+1)+"\n", // over the scanner's limit
	)
	for _, input := range inputs {
		g, ids, err := LoadEdgeList(strings.NewReader(input))
		agreeWithOracle(t, input, g, ids, err)
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	for _, src := range []string{"a b", "a b c d", "only-one-field"} {
		if _, _, err := LoadEdgeList(strings.NewReader(src)); err == nil {
			t.Errorf("LoadEdgeList(%q): expected error", src)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	src := "x a y\ny a z\nz b x\n"
	g, ids, err := LoadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, NodeNames(g.Nodes(), ids)); err != nil {
		t.Fatal(err)
	}
	g2, ids2, err := LoadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, ids2) {
		t.Fatalf("name maps differ after round trip: %v vs %v", ids, ids2)
	}
	if g.Nodes() != g2.Nodes() || g.EdgeCount() != g2.EdgeCount() {
		t.Fatalf("graphs differ after round trip: %v vs %v", g, g2)
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.From, e.Label, e.To) {
			t.Fatalf("round trip lost edge %v", e)
		}
	}
}

// BenchmarkLoadEdgeList loads the upload document of the benchmark's
// sf100k input: PreferentialAttachment(seed 1, 100 000, 3, {a, b}), node i
// named "n<i>", written by WriteEdgeList.
func BenchmarkLoadEdgeList(b *testing.B) {
	g := PreferentialAttachment(rand.New(rand.NewSource(1)), 100_000, 3, []string{"a", "b"})
	names := make([]string, g.Nodes())
	for i := range names {
		names[i] = "n" + strconv.Itoa(i)
	}
	var doc bytes.Buffer
	if err := WriteEdgeList(&doc, g, names); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := LoadEdgeList(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

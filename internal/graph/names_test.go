package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// namesFixture is a 9-node graph whose node 2 is *named* "7" — the case
// that separates name resolution from id resolution.
func namesFixture() (*Graph, *Names) {
	g := New(9)
	return g, NewNames(g.Nodes(), []string{"a", "b", "7"})
}

func TestNamesLookup(t *testing.T) {
	_, names := namesFixture()
	before := append([]string(nil), names.ByID()...)
	for _, c := range []struct {
		tok     string
		want    int
		unknown bool // want ErrUnknownNode
		outside bool // want *RangeError
	}{
		{tok: "a", want: 0},
		{tok: "7", want: 2}, // the node named "7", not id 7
		{tok: "8", want: 8},
		{tok: "+5", want: 5},
		{tok: "007", want: 7}, // a numeral, and not the name "7"
		{tok: "9", outside: true},
		{tok: "-1", outside: true},
		{tok: "99999999999999999999", unknown: true}, // overflows int: not a numeral
		{tok: "nobody", unknown: true},
		{tok: "", unknown: true},
	} {
		id, err := names.Lookup(c.tok)
		var re *RangeError
		switch {
		case c.unknown:
			if !errors.Is(err, ErrUnknownNode) {
				t.Errorf("Lookup(%q) = %d, %v; want ErrUnknownNode", c.tok, id, err)
			}
		case c.outside:
			if !errors.As(err, &re) || re.Nodes != 9 {
				t.Errorf("Lookup(%q) = %d, %v; want a RangeError over 9 nodes", c.tok, id, err)
			}
		case err != nil || id != c.want:
			t.Errorf("Lookup(%q) = %d, %v; want %d", c.tok, id, err, c.want)
		}
	}
	if !reflect.DeepEqual(names.ByID(), before) {
		t.Errorf("Lookup changed the table: %q -> %q", before, names.ByID())
	}
}

func TestNamesIntern(t *testing.T) {
	g, names := namesFixture()
	for _, c := range []struct {
		tok       string
		idsOnly   bool
		want      int
		wantNodes int
	}{
		{"a", false, 0, 9},
		{"7", false, 2, 9},   // name beats numeral
		{"7", true, 7, 9},    // ids-only never consults names
		{"11", true, 11, 12}, // ... and grows the range
		{"3", false, 3, 12},
		{"14", false, 14, 15}, // out of range: Lookup fails, Intern grows
		{"-1", false, 15, 16}, // a negative numeral is a fresh name
		{"-1", false, 15, 16},
		{"+5", false, 5, 16},
		{"007", false, 7, 16},
		{"99999999999999999999", false, 16, 17}, // overflow: a fresh name
		{"x", false, 17, 18},
		{"x", false, 17, 18}, // repeated fresh name, as within one batch
		{"20", false, 20, 21},
		{"y", false, 21, 22}, // a fresh node lands past a numeral-grown gap
	} {
		if _, err := names.Lookup(c.tok); c.tok == "14" && err == nil {
			t.Errorf("Lookup(%q) succeeded before Intern grew the range", c.tok)
		}
		got := names.Intern(g, c.tok, c.idsOnly)
		if got != c.want || g.Nodes() != c.wantNodes {
			t.Errorf("Intern(%q, idsOnly=%v) = %d with %d nodes; want %d with %d",
				c.tok, c.idsOnly, got, g.Nodes(), c.want, c.wantNodes)
		}
		if len(names.ByID()) != g.Nodes() {
			t.Fatalf("after Intern(%q): table covers %d nodes, graph has %d", c.tok, len(names.ByID()), g.Nodes())
		}
		if !c.idsOnly {
			if id, err := names.Lookup(c.tok); err != nil || id != got {
				t.Errorf("Lookup(%q) after Intern = %d, %v; want %d", c.tok, id, err, got)
			}
		}
	}
	for id, want := range map[int]string{0: "a", 2: "7", 7: "7", 15: "-1", 16: "99999999999999999999", 17: "x", 19: "19", 21: "y", 99: "99"} {
		if got := names.Name(id); got != want {
			t.Errorf("Name(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestNewNamesFitsTheGraph(t *testing.T) {
	short := NewNames(3, []string{"a"})
	long := NewNames(1, []string{"a", "b"})
	if got := short.ByID(); !reflect.DeepEqual(got, []string{"a", "", ""}) {
		t.Errorf("padded table = %q", got)
	}
	if got := long.ByID(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("truncated table = %q", got)
	}
	if _, err := long.Lookup("b"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("a name beyond the node range resolved: %v", err)
	}
}

// TestNewNamesSizesItsMapOnce bounds what building the table of 100k named
// nodes allocates: the id → name copy (1.6 MB) and a map sized once for
// the names, about 5.1 MB in all. A map grown by doubling from empty
// allocates 8.6 MB.
func TestNewNamesSizesItsMapOnce(t *testing.T) {
	const n = 100_000
	byID := make([]string, n)
	for id := range byID {
		byID[id] = fmt.Sprintf("n%d", id)
	}
	var names *Names
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	names = NewNames(n, byID)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 6<<20 {
		t.Errorf("NewNames of %d names allocated %d bytes, want ≤ 6 MiB", n, got)
	}
	if id, err := names.Lookup("n99999"); err != nil || id != n-1 {
		t.Errorf("Lookup(n99999) = %d, %v", id, err)
	}
}

// TestPlainMatchesEncodingJSON: a name's Plain flags say exactly when
// encoding/json writes it as it is between quotes — PlainJSON without
// HTML escaping, PlainHTML with it — and the table records them for names
// NewNames and Intern take in, beside ByID.
func TestPlainMatchesEncodingJSON(t *testing.T) {
	names := []string{
		"", "alice", "n123", `q"uote`, `back\slash`, "ctl\x01", "tab\t", "del\x7f", "<tag>", "a&b",
		"é日本", "🙂", "bad\xffutf8", "\xc3", "line\u2028", "para\u2029", "\ufffd", "nb\u00a0sp",
	}
	for _, s := range names {
		for _, html := range []bool{false, true} {
			var b bytes.Buffer
			enc := json.NewEncoder(&b)
			enc.SetEscapeHTML(html)
			if err := enc.Encode(s); err != nil {
				t.Fatal(err)
			}
			flag := PlainJSON
			if html {
				flag = PlainHTML
			}
			if asIs := b.String() == `"`+s+`"`+"\n"; asIs != (Plain(s)&flag != 0) {
				t.Errorf("%q: encoding/json (HTML escaping %v) writes it as it is: %v; Plain flags %02b", s, html, asIs, Plain(s))
			}
		}
	}
	g := New(len(names))
	table := NewNames(g.Nodes(), names)
	table.Intern(g, "fresh<&>", false)
	v := table.View()
	if !reflect.DeepEqual(v.ByID, table.ByID()) || len(v.Plain) != len(v.ByID) {
		t.Fatalf("View: %d names and %d flags; ByID %d", len(v.ByID), len(v.Plain), len(table.ByID()))
	}
	for id, name := range v.ByID {
		if v.Plain[id] != Plain(name) {
			t.Errorf("node %d %q: recorded flags %02b, want %02b", id, name, v.Plain[id], Plain(name))
		}
	}
}

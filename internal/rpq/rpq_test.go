package rpq

import (
	"strings"
	"testing"
)

// The evaluation tests — chain/star/cycle behaviour and the headline
// CFPQ-reduction-vs-BFS cross-check — live in the root cfpq package
// (rpq_eval_test.go), because evaluation itself now goes through the public
// Engine API; this package only compiles expressions and reduces them.

func TestParseRegex(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"a", "a"},
		{"a b", "(a b)"},
		{"a | b", "(a | b)"},
		{"a b | c", "((a b) | c)"},
		{"a*", "a*"},
		{"a+ b?", "(a+ b?)"},
		{"(a | b)* c", "((a | b)* c)"},
		{"subClassOf_r* type", "(subClassOf_r* type)"},
	}
	for _, c := range cases {
		r, err := ParseRegex(c.src)
		if err != nil {
			t.Fatalf("ParseRegex(%q): %v", c.src, err)
		}
		if got := r.String(); got != c.want {
			t.Errorf("ParseRegex(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseRegexErrors(t *testing.T) {
	for _, src := range []string{"", "(", "(a", "a |", "*", "a )", "| a"} {
		if _, err := ParseRegex(src); err == nil {
			t.Errorf("ParseRegex(%q) succeeded, want error", src)
		}
	}
}

func TestNFAAccepts(t *testing.T) {
	cases := []struct {
		expr string
		yes  []string
		no   []string
	}{
		{"a", []string{"a"}, []string{"", "b", "a a"}},
		{"a*", []string{"", "a", "a a a"}, []string{"b", "a b"}},
		{"a+", []string{"a", "a a"}, []string{"", "b"}},
		{"a?", []string{"", "a"}, []string{"a a"}},
		{"a b | c", []string{"a b", "c"}, []string{"a", "b", "a c"}},
		{"(a | b)* c", []string{"c", "a c", "b a c"}, []string{"", "a", "c c a"}},
	}
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Fields(s)
	}
	for _, c := range cases {
		nfa := CompileNFA(MustParseRegex(c.expr))
		for _, w := range c.yes {
			if !nfa.Accepts(split(w)) {
				t.Errorf("%q should accept %q", c.expr, w)
			}
		}
		for _, w := range c.no {
			if nfa.Accepts(split(w)) {
				t.Errorf("%q should reject %q", c.expr, w)
			}
		}
		if nfa.AcceptsEmpty != nfa.Accepts(nil) {
			t.Errorf("%q: AcceptsEmpty inconsistent", c.expr)
		}
	}
}

func TestGrammarReductionShape(t *testing.T) {
	gram, start, nfa := Grammar(MustParseRegex("a* b"))
	if !strings.HasPrefix(start, "Q") {
		t.Errorf("start = %q", start)
	}
	if nfa.AcceptsEmpty {
		t.Error("a* b does not accept ε")
	}
	// Right-linear shape: every production is x, or x Q.
	for _, p := range gram.Productions {
		switch len(p.Rhs) {
		case 1:
			if !p.Rhs[0].Terminal {
				t.Errorf("unit non-terminal production %s", p)
			}
		case 2:
			if !p.Rhs[0].Terminal || p.Rhs[1].Terminal {
				t.Errorf("non-right-linear production %s", p)
			}
		default:
			t.Errorf("production of length %d: %s", len(p.Rhs), p)
		}
	}
}

// TestCanonicalFormIsAFixpoint pins two properties a cache keyed by
// Regex.String relies on, over expressions composed from nullable,
// repeated and alternated atoms: the canonical form parses back to itself,
// and the lowered grammar always holds its start symbol — the parser
// accepts no expression whose language is empty or {ε}, since every one
// holds a label and so a non-empty word.
func TestCanonicalFormIsAFixpoint(t *testing.T) {
	atoms := []string{"a", "(b)", "a*", "b?", "a+", "(a|b)*", "(a?)*", "((a*)*)+", "(a* | b?)", "a? b?"}
	var srcs []string
	for _, x := range atoms {
		srcs = append(srcs, x)
		for _, y := range atoms {
			srcs = append(srcs, x+" "+y, x+"|"+y, "("+x+" "+y+")*", "( "+x+"|"+y+" )?")
		}
	}
	for _, src := range srcs {
		canon := MustParseRegex(src).String()
		r, err := ParseRegex(canon)
		if err != nil || r.String() != canon {
			t.Fatalf("%q: canonical form %q parses to %v, %v", src, canon, r, err)
		}
		if g, start, _ := Grammar(r); !g.HasNonterminal(start) {
			t.Fatalf("%q lowers to a grammar without its start symbol %s", src, start)
		}
	}
}

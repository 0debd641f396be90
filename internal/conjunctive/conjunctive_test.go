package conjunctive

import (
	"context"
	"strings"
	"testing"

	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// anbncn is the canonical non-context-free conjunctive language
// {aⁿbⁿcⁿ | n ≥ 1}: equal a/b prefix with trailing c's, intersected with
// leading a's and equal b/c suffix.
const anbncn = `
S -> A B & D C
A -> a A | a
B -> b B c | b c
C -> c C | c
D -> a D b | a b
`

// refDerives is an independent reference recogniser for conjunctive
// grammars on strings: a bottom-up Kleene iteration over spans. A span
// (A, i, j) becomes derivable when some production of A has every conjunct
// derivable over (i, j), using the truths established so far; iteration
// repeats until no span is added (least fixpoint — the standard bottom-up
// semantics of conjunctive grammars).
func refDerives(g *Grammar, start string, word []string) bool {
	type key struct {
		nt   string
		i, j int
	}
	n := len(word)
	derived := map[key]bool{}
	nts := map[string]bool{}
	for _, p := range g.Productions {
		nts[p.Lhs] = true
	}

	// seqDerives: does the symbol string derive word[i:j], given `derived`?
	var seqDerives func(seq []int, conj []struct {
		name string
		term bool
	}, i, j int) bool
	seqDerives = func(rest []int, conj []struct {
		name string
		term bool
	}, i, j int) bool {
		if len(rest) == 0 {
			return i == j
		}
		s := conj[rest[0]]
		if s.term {
			return i < j && word[i] == s.name && seqDerives(rest[1:], conj, i+1, j)
		}
		if len(rest) == 1 {
			return derived[key{s.name, i, j}]
		}
		for k := i + 1; k <= j; k++ {
			if derived[key{s.name, i, k}] && seqDerives(rest[1:], conj, k, j) {
				return true
			}
		}
		return false
	}

	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions {
			for i := 0; i < n; i++ {
				for j := i + 1; j <= n; j++ {
					k := key{p.Lhs, i, j}
					if derived[k] {
						continue
					}
					all := true
					for _, conj := range p.Conjuncts {
						flat := make([]struct {
							name string
							term bool
						}, len(conj))
						idx := make([]int, len(conj))
						for x, s := range conj {
							flat[x] = struct {
								name string
								term bool
							}{s.Name, s.Terminal}
							idx[x] = x
						}
						if !seqDerives(idx, flat, i, j) {
							all = false
							break
						}
					}
					if all {
						derived[k] = true
						changed = true
					}
				}
			}
		}
	}
	return derived[key{start, 0, n}]
}

func TestAnBnCn(t *testing.T) {
	g := MustParse(anbncn)
	cases := []struct {
		word string
		want bool
	}{
		{"a b c", true},
		{"a a b b c c", true},
		{"a a a b b b c c c", true},
		{"a b", false},
		{"a a b b c", false},
		{"a b b c c", false},
		{"a b c c", false},
		{"b a c", false},
		{"a a b c c", false},
	}
	for _, c := range cases {
		word := strings.Fields(c.word)
		got, err := Recognize(context.Background(), g, "S", word)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Recognize(%q) = %v, want %v", c.word, got, c.want)
		}
		if ref := refDerives(g, "S", word); ref != c.want {
			t.Errorf("reference recogniser disagrees on %q: %v", c.word, ref)
		}
	}
}

func TestContextFreeSubsetBehavesAsCFG(t *testing.T) {
	// A conjunctive grammar without & must behave exactly like the CFG.
	g := MustParse(`
		S -> a S b | a b
	`)
	for _, c := range []struct {
		word string
		want bool
	}{
		{"a b", true},
		{"a a b b", true},
		{"a b b", false},
	} {
		got, err := Recognize(context.Background(), g, "S", strings.Fields(c.word))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%q: got %v", c.word, got)
		}
	}
}

func TestUpperApproximationOnGraphs(t *testing.T) {
	// The paper's hypothesis: on graphs, the conjunctive closure yields an
	// UPPER approximation. With S → A & B, A → a, B → b and parallel
	// edges 0—a→1, 0—b→1, no single path satisfies both conjuncts
	// (L(S) = {a} ∩ {b} = ∅), yet the node-pair intersection reports
	// (0, 1).
	g := graph.New(2)
	g.AddEdge(0, "a", 1)
	g.AddEdge(0, "b", 1)
	cg := MustParse(`
		S -> A & B
		A -> a
		B -> b
	`)
	res, err := EvaluateContext(context.Background(), g, cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Has("S", 0, 1) {
		t.Error("expected the upper approximation to contain (0,1)")
	}
	// On the chain graph (a single path), the same grammar is exact: no
	// word is in L(S), so the relation is empty.
	for _, w := range [][]string{{"a"}, {"b"}, {"a", "b"}} {
		got, err := Recognize(context.Background(), cg, "S", w)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Errorf("L(S) is empty but %v recognised", w)
		}
	}
}

func TestEvaluateBackendsAgree(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	g.AddEdge(2, "c", 3)
	g.AddEdge(3, "a", 0)
	cg := MustParse(anbncn)
	var ref []matrix.Pair
	for i, be := range matrix.Backends() {
		res, err := EvaluateContext(context.Background(), g, cg, be)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Relation("S")
		if i == 0 {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s disagrees: %v vs %v", be.Name(), got, ref)
		}
		for k := range got {
			if got[k] != ref[k] {
				t.Fatalf("%s disagrees: %v vs %v", be.Name(), got, ref)
			}
		}
	}
}

// TestRandomWordsAgainstReference compares the matrix evaluation on chain
// graphs with the bottom-up reference recogniser over all short words.
func TestRandomWordsAgainstReference(t *testing.T) {
	grammars := []*Grammar{
		MustParse(anbncn),
		MustParse("S -> A B & B A\nA -> a | a A\nB -> b | b B"),
		MustParse("S -> a S | A & B\nA -> a b\nB -> a b"),
	}
	alphabet := []string{"a", "b", "c"}
	var words [][]string
	var gen func(prefix []string, n int)
	gen = func(prefix []string, n int) {
		if n == 0 {
			w := make([]string, len(prefix))
			copy(w, prefix)
			words = append(words, w)
			return
		}
		for _, a := range alphabet {
			gen(append(prefix, a), n-1)
		}
	}
	for n := 1; n <= 4; n++ {
		gen(nil, n)
	}
	for gi, g := range grammars {
		for _, w := range words {
			got, err := Recognize(context.Background(), g, "S", w)
			if err != nil {
				t.Fatal(err)
			}
			want := refDerives(g, "S", w)
			if got != want {
				t.Fatalf("grammar %d word %v: matrix=%v reference=%v", gi, w, got, want)
			}
		}
	}
}

// TestCFOnlyAgainstCoreEngine: a conjunctive grammar with no & must compute
// the same relations as the context-free engine on arbitrary graphs.
func TestCFOnlyAgainstCoreEngine(t *testing.T) {
	cg := MustParse("S -> a S b | a b")
	g := graph.TwoCycles(2, 3, "a", "b")
	res, err := EvaluateContext(context.Background(), g, cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Known facts from the core tests: (0,0) ∈ R_S on two-cycles(2,3).
	if !res.Has("S", 0, 0) {
		t.Error("(0,0) missing on two-cycles")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"S - a",
		"s -> a",
		"S -> a & eps",
		"S -> a &",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestProductionString(t *testing.T) {
	g := MustParse("S -> A B & D C")
	if got := g.Productions[0].String(); got != "S -> A B & D C" {
		t.Errorf("String() = %q", got)
	}
}

func TestUnknownNonterminalRelation(t *testing.T) {
	res, err := EvaluateContext(context.Background(), graph.Chain(2, "a"), MustParse("S -> a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation("Zed") != nil {
		t.Error("unknown non-terminal should have nil relation")
	}
	if res.Has("Zed", 0, 1) {
		t.Error("unknown non-terminal Has should be false")
	}
}

func TestUnitConjunct(t *testing.T) {
	// S → A & b : fragment must derive from A and be exactly a b-edge.
	g := graph.New(2)
	g.AddEdge(0, "a", 1)
	g.AddEdge(0, "b", 1)
	cg := MustParse(`
		S -> A & b
		A -> a | b
	`)
	res, err := EvaluateContext(context.Background(), g, cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Has("S", 0, 1) {
		t.Error("(0,1) should satisfy both conjuncts (A via the b-edge)")
	}
	g2 := graph.New(2)
	g2.AddEdge(0, "a", 1)
	cg2 := MustParse(`
		S -> A & b
		A -> a
	`)
	res2, err := EvaluateContext(context.Background(), g2, cg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Has("S", 0, 1) {
		t.Error("no b-edge: the unit conjunct must fail")
	}
}

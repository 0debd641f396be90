package conjunctive

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cfpq/internal/core"
	"cfpq/internal/grammar"
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

// MustParse is Parse that panics on error.
func MustParse(text string) *Grammar {
	g, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return g
}

// Recognize reports whether the word derives from start under the
// conjunctive grammar, by evaluating on the word's chain graph (exact on
// linear inputs per Okhotin's matrix parsing).
func Recognize(ctx context.Context, cg *Grammar, start string, word []string) (bool, error) {
	ix, _, err := EvaluateContext(ctx, core.NewEngine(), graph.Word(word), cg)
	if err != nil {
		return false, err
	}
	return ix.Has(start, 0, len(word)), nil
}

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
	res, _, err := EvaluateContext(context.Background(), core.NewEngine(), g, cg)
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
		res, _, err := EvaluateContext(context.Background(), core.NewEngine(core.WithBackend(be)), g, cg)
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
	res, _, err := EvaluateContext(context.Background(), core.NewEngine(), g, cg)
	if err != nil {
		t.Fatal(err)
	}
	// Known facts from the core tests: (0,0) ∈ R_S on two-cycles(2,3).
	if !res.Has("S", 0, 0) {
		t.Error("(0,0) missing on two-cycles")
	}
	// No &, no intersection rule: the evaluation is the context-free one.
	if _, meets, err := cg.compile(); err != nil || len(meets) != 0 {
		t.Errorf("conjunct-free grammar compiled to meets %v (err %v), want none", meets, err)
	}
}

// refEvaluate is the loop EvaluateContext ran before evaluation became the
// core engine's, kept as the oracle: every pass recomputes every production
// as the intersection of its conjuncts' products, in fresh matrices, until
// no relation grows. It reads the source productions — a conjunct is the
// chain product of its symbols' matrices — so compile is under test too.
func refEvaluate(g *graph.Graph, cg *Grammar) map[string][]matrix.Pair {
	be, n := matrix.Dense(), g.Nodes()
	rel := map[string]matrix.Bool{}
	of := func(s grammar.Symbol) matrix.Bool {
		m, ok := rel[s.String()]
		if !ok {
			m = be.NewMatrix(n)
			rel[s.String()] = m
			if s.Terminal {
				for _, e := range g.EdgesWithLabel(s.Name) {
					m.Set(e.From, e.To)
				}
			}
		}
		return m
	}
	for changed := true; changed; {
		changed = false
		for _, p := range cg.Productions {
			var acc matrix.Bool
			for _, conj := range p.Conjuncts {
				prod := of(conj[0]).Clone()
				for _, s := range conj[1:] {
					next := be.NewMatrix(n)
					next.AddMul(prod, of(s))
					prod = next
				}
				if acc == nil {
					acc = prod
				} else {
					acc.And(prod)
				}
			}
			if of(grammar.NT(p.Lhs)).Or(acc) {
				changed = true
			}
		}
	}
	out := map[string][]matrix.Pair{}
	for _, p := range cg.Productions {
		out[p.Lhs] = matrix.Pairs(rel[p.Lhs])
	}
	return out
}

// randomGrammar draws a conjunctive grammar over S, A, B, C and a, b, c:
// unit and terminal conjuncts, heads that are other rules' conjuncts and
// cyclic dependencies all come up within a few seeds.
func randomGrammar(rng *rand.Rand) *Grammar {
	nts, terms := []string{"S", "A", "B", "C"}, []string{"a", "b", "c"}
	cg := &Grammar{}
	for _, lhs := range nts {
		cg.Productions = append(cg.Productions, Production{Lhs: lhs, Conjuncts: [][]grammar.Symbol{{grammar.T(terms[rng.Intn(3)])}}})
		for k := rng.Intn(3); k >= 0; k-- {
			p := Production{Lhs: lhs}
			for c := 1 + rng.Intn(3); c > 0; c-- {
				var conj []grammar.Symbol
				for s := 1 + rng.Intn(3); s > 0; s-- {
					if rng.Intn(3) == 0 {
						conj = append(conj, grammar.T(terms[rng.Intn(3)]))
					} else {
						conj = append(conj, grammar.NT(nts[rng.Intn(4)]))
					}
				}
				p.Conjuncts = append(p.Conjuncts, conj)
			}
			cg.Productions = append(cg.Productions, p)
		}
	}
	return cg
}

// TestRandomGrammarsAgainstReference: the engine's semi-naive evaluation of
// the lowered grammar equals the naive loop over the source productions, on
// random cyclic graphs and every backend.
func TestRandomGrammarsAgainstReference(t *testing.T) {
	meets := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cg := randomGrammar(rng)
		n := 2 + rng.Intn(9)
		g := graph.Random(rng, n, 3*n, []string{"a", "b", "c"})
		want := refEvaluate(g, cg)
		_, ms, _ := cg.compile()
		meets += len(ms)
		for _, be := range matrix.Backends() {
			ix, _, err := EvaluateContext(context.Background(), core.NewEngine(core.WithBackend(be)), g, cg)
			if err != nil {
				t.Fatal(err)
			}
			for nt, pairs := range want {
				if got := ix.Relation(nt); !reflect.DeepEqual(got, pairs) {
					t.Fatalf("seed %d, %s: R_%s = %v, reference %v\n%v", seed, be.Name(), nt, got, pairs, cg.Productions)
				}
			}
		}
	}
	if meets < 40 {
		t.Errorf("only %d intersection rules over all seeds: the generator no longer exercises them", meets)
	}
}

// TestEvaluateHonoursBudgetAndCancellation: what conjunctive evaluation
// gained by running the engine's loop. A budget below the working set
// rejects it before a matrix is allocated; a cancellation lands between
// passes.
func TestEvaluateHonoursBudgetAndCancellation(t *testing.T) {
	cg := MustParse(anbncn)
	const n = 1 << 12
	g := graph.Chain(n, "a")
	for _, be := range matrix.Backends() {
		eng := core.NewEngine(core.WithBackend(be), core.WithMemoryBudget(be.EmptyBytes(n)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := EvaluateContext(context.Background(), eng, g, cg)
		runtime.ReadMemStats(&after)
		var mbe *core.MemoryBudgetError
		if !errors.As(err, &mbe) {
			t.Fatalf("%s: under one matrix's budget: %v, want *MemoryBudgetError", be.Name(), err)
		}
		if got := int64(after.TotalAlloc - before.TotalAlloc); got >= be.EmptyBytes(n) {
			t.Errorf("%s: rejected evaluation allocated %d bytes, a matrix is %d", be.Name(), got, be.EmptyBytes(n))
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	traced := core.WithTraceContext(ctx, &core.Trace{Pass: func(ev core.PassEvent) {
		if events++; ev.Pass == 1 {
			cancel()
		}
	}})
	word := graph.Word(strings.Fields("a a a b b b c c c"))
	ix, stats, err := EvaluateContext(traced, core.NewEngine(), word, cg)
	if !errors.Is(err, context.Canceled) || ix != nil {
		t.Fatalf("cancelled evaluation: index %v, err %v", ix, err)
	}
	if events != 2 || stats.Iterations != 1 {
		t.Errorf("cancelled in pass 1: %d events, %d passes; want the seeding, one pass, and a stop", events, stats.Iterations)
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
	res, _, err := EvaluateContext(context.Background(), core.NewEngine(), graph.Chain(2, "a"), MustParse("S -> a"))
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
	res, _, err := EvaluateContext(context.Background(), core.NewEngine(), g, cg)
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
	res2, _, err := EvaluateContext(context.Background(), core.NewEngine(), g2, cg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Has("S", 0, 1) {
		t.Error("no b-edge: the unit conjunct must fail")
	}
}

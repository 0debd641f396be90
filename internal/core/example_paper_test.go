package core

import (
	"context"
	"reflect"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// paperCNF is the grammar G' of paper Figure 4 — the same-generation query
// grammar already in Chomsky Normal Form, with the paper's auxiliary names.
const paperCNF = `
S -> S1 S5
S -> S3 S6
S -> S1 S2
S -> S3 S4
S5 -> S S2
S6 -> S S4
S1 -> subClassOf_r
S2 -> subClassOf
S3 -> type_r
S4 -> type
`

// paperGraph is the input graph of paper Figure 5, reconstructed from the
// initial matrix T₀ of Figure 6:
//
//	T₀[0][0] = {S1} → edge (0, subClassOf⁻¹, 0)
//	T₀[0][1] = {S3} → edge (0, type⁻¹, 1)
//	T₀[1][2] = {S3} → edge (1, type⁻¹, 2)
//	T₀[2][0] = {S2} → edge (2, subClassOf, 0)
//	T₀[2][2] = {S4} → edge (2, type, 2)
func paperGraph() *graph.Graph {
	g := graph.New(3)
	g.AddEdge(0, "subClassOf_r", 0)
	g.AddEdge(0, "type_r", 1)
	g.AddEdge(1, "type_r", 2)
	g.AddEdge(2, "subClassOf", 0)
	g.AddEdge(2, "type", 2)
	return g
}

// cells builds the expected matrix-of-sets state from a compact spec.
func cells(spec map[[2]int][]string) [][][]string {
	out := make([][][]string, 3)
	for i := range out {
		out[i] = make([][]string, 3)
	}
	for pos, set := range spec {
		out[pos[0]][pos[1]] = set
	}
	return out
}

// TestPaperExampleIterations replays Section 4.3 exactly: under the paper's
// own iteration T ← T ∪ (T × T) — Algorithm1, and the engine's semi-naive
// loop, which must not skip a state — the matrix states after initialisation
// and after each loop pass must equal Figures 6, 7 and 8, reaching the
// fixpoint at T₆ = T₅.
func TestPaperExampleIterations(t *testing.T) {
	cnf := grammar.MustParseCNF(paperCNF)
	want := [][][][]string{
		// T0 (Figure 6)
		cells(map[[2]int][]string{
			{0, 0}: {"S1"}, {0, 1}: {"S3"},
			{1, 2}: {"S3"},
			{2, 0}: {"S2"}, {2, 2}: {"S4"},
		}),
		// T1 (Figure 7): S appears at (1,2)
		cells(map[[2]int][]string{
			{0, 0}: {"S1"}, {0, 1}: {"S3"},
			{1, 2}: {"S", "S3"},
			{2, 0}: {"S2"}, {2, 2}: {"S4"},
		}),
		// T2 (Figure 8): S5 at (1,0), S6 at (1,2)
		cells(map[[2]int][]string{
			{0, 0}: {"S1"}, {0, 1}: {"S3"},
			{1, 0}: {"S5"}, {1, 2}: {"S", "S3", "S6"},
			{2, 0}: {"S2"}, {2, 2}: {"S4"},
		}),
		// T3: S at (0,2)
		cells(map[[2]int][]string{
			{0, 0}: {"S1"}, {0, 1}: {"S3"}, {0, 2}: {"S"},
			{1, 0}: {"S5"}, {1, 2}: {"S", "S3", "S6"},
			{2, 0}: {"S2"}, {2, 2}: {"S4"},
		}),
		// T4: S5 at (0,0), S6 at (0,2)
		cells(map[[2]int][]string{
			{0, 0}: {"S1", "S5"}, {0, 1}: {"S3"}, {0, 2}: {"S", "S6"},
			{1, 0}: {"S5"}, {1, 2}: {"S", "S3", "S6"},
			{2, 0}: {"S2"}, {2, 2}: {"S4"},
		}),
		// T5: S at (0,0)
		cells(map[[2]int][]string{
			{0, 0}: {"S", "S1", "S5"}, {0, 1}: {"S3"}, {0, 2}: {"S", "S6"},
			{1, 0}: {"S5"}, {1, 2}: {"S", "S3", "S6"},
			{2, 0}: {"S2"}, {2, 2}: {"S4"},
		}),
		// T6 = T5: fixpoint
		cells(map[[2]int][]string{
			{0, 0}: {"S", "S1", "S5"}, {0, 1}: {"S3"}, {0, 2}: {"S", "S6"},
			{1, 0}: {"S5"}, {1, 2}: {"S", "S3", "S6"},
			{2, 0}: {"S2"}, {2, 2}: {"S4"},
		}),
	}

	check := func(name string, got [][][][]string, stats Stats) {
		t.Helper()
		if stats.Iterations != 6 {
			t.Errorf("%s: Iterations = %d, want 6 (paper: T6 = T5)", name, stats.Iterations)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: traced %d states, want %d", name, len(got), len(want))
		}
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("%s: T%d mismatch:\ngot  %v\nwant %v", name, k, got[k], want[k])
			}
		}
	}

	var got [][][][]string
	_, stats := Algorithm1(matrix.Dense(), paperGraph(), cnf, func(k int, ix *Index) {
		if k != len(got) {
			t.Errorf("visit(%d) arrived as state number %d", k, len(got))
		}
		got = append(got, ix.CellSets())
	})
	check("Algorithm1", got, stats)

	// The production engine passes through the same figures, one trace
	// event per state, on every backend.
	for _, be := range matrix.Backends() {
		e := NewEngine(WithBackend(be))
		ix := e.Init(paperGraph(), cnf)
		var got [][][][]string
		ctx := WithTraceContext(context.Background(), &Trace{Pass: func(ev PassEvent) {
			if ev.Pass != len(got) {
				t.Errorf("%s: event %d arrived as state number %d", be.Name(), ev.Pass, len(got))
			}
			got = append(got, ix.CellSets())
		}})
		stats, err := e.CloseContext(ctx, ix)
		if err != nil {
			t.Fatal(err)
		}
		check("engine on "+be.Name(), got, stats)
	}
}

// TestPaperExampleRelations checks the final context-free relations against
// Figure 9.
func TestPaperExampleRelations(t *testing.T) {
	cnf := grammar.MustParseCNF(paperCNF)
	for _, be := range matrix.Backends() {
		e := NewEngine(WithBackend(be))
		ix, _, _ := e.RunContext(context.Background(), paperGraph(), cnf)
		want := map[string][]matrix.Pair{
			"S":  {{I: 0, J: 0}, {I: 0, J: 2}, {I: 1, J: 2}},
			"S1": {{I: 0, J: 0}},
			"S2": {{I: 2, J: 0}},
			"S3": {{I: 0, J: 1}, {I: 1, J: 2}},
			"S4": {{I: 2, J: 2}},
			"S5": {{I: 0, J: 0}, {I: 1, J: 0}},
			"S6": {{I: 0, J: 2}, {I: 1, J: 2}},
		}
		for nt, pairs := range want {
			if got := ix.Relation(nt); !reflect.DeepEqual(got, pairs) {
				t.Errorf("%s: R_%s = %v, want %v", be.Name(), nt, got, pairs)
			}
		}
	}
}

// TestPaperExampleWithMechanicalCNF runs the same query through the full
// pipeline — the Figure 3 grammar normalised by our own ToCNF rather than
// the paper's hand-made CNF — and checks that R_S is unchanged (the paper:
// "a grammar G'_S is equivalent to the grammar G_S").
func TestPaperExampleWithMechanicalCNF(t *testing.T) {
	g := grammar.MustParse(`
		S -> subClassOf_r S subClassOf
		S -> type_r S type
		S -> subClassOf_r subClassOf
		S -> type_r type
	`)
	e := NewEngine()
	ix, _, err := e.RunContext(context.Background(), paperGraph(), grammar.MustCNF(g))
	if err != nil {
		t.Fatal(err)
	}
	pairs := ix.Relation("S")
	want := []matrix.Pair{{I: 0, J: 0}, {I: 0, J: 2}, {I: 1, J: 2}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("R_S = %v, want %v", pairs, want)
	}
}

// TestPaperExampleSinglePath exercises Section 5 on the worked example: the
// pair (1, 2) ∈ R_S must come with a witness path whose labels derive from
// S; the paper gives the 2-edge witness type⁻¹ · type.
func TestPaperExampleSinglePath(t *testing.T) {
	cnf := grammar.MustParseCNF(paperCNF)
	g := paperGraph()
	px, _, _ := NewEngine().SinglePathContext(context.Background(), g, cnf)
	for _, pair := range [][2]int{{0, 0}, {0, 2}, {1, 2}} {
		path, ok := px.Path("S", pair[0], pair[1])
		if !ok {
			t.Fatalf("no path for (S, %d, %d)", pair[0], pair[1])
		}
		if err := ValidatePath(path, pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
		if !cnf.Derives("S", Labels(path)) {
			t.Errorf("labels %v of witness for (%d,%d) do not derive from S",
				Labels(path), pair[0], pair[1])
		}
		l, ok := px.Length("S", pair[0], pair[1])
		if !ok || l != len(path) {
			t.Errorf("(S,%d,%d): recorded length %d, path length %d",
				pair[0], pair[1], l, len(path))
		}
	}
	// The shortest witness for (1,2) is exactly the paper's type⁻¹ type.
	if l, _ := px.Length("S", 1, 2); l != 2 {
		t.Errorf("length(S,1,2) = %d, want 2 (paper: type⁻¹ · type)", l)
	}
	if _, ok := px.Path("S", 2, 1); ok {
		t.Error("(2,1) ∉ R_S but a path was returned")
	}
}

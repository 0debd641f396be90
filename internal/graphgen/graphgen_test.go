package graphgen

import (
	"context"
	"testing"

	"cfpq/internal/core"
	"cfpq/internal/grammar"
	"cfpq/internal/matrix"
)

// dyckCount evaluates the scale-tier grammar S → a S b | a b on the spec's
// graph and returns |R_S|, on which every matrix backend must agree.
func dyckCount(t *testing.T, s Spec) int {
	t.Helper()
	g, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	cnf := grammar.MustCNF(grammar.MustParse("S -> a S b | a b"))
	count := -1
	for _, be := range matrix.Backends() {
		ix, _, _ := core.NewEngine(core.WithBackend(be)).RunContext(context.Background(), g, cnf)
		if got := ix.Count("S"); count == -1 {
			count = got
		} else if got != count {
			t.Fatalf("%s %+v: |R_S| = %d, other backends say %d", be.Name(), s, got, count)
		}
	}
	return count
}

// TestChainRelation pins the chain construction: the word a^(n-1-d) b^d
// has exactly d balanced substrings a^t b^t, one per derivation level.
func TestChainRelation(t *testing.T) {
	if got := dyckCount(t, Spec{Kind: KindChain, Nodes: 21, Depth: 5}); got != 5 {
		t.Fatalf("chain(21,5) |R_S| = %d, want 5", got)
	}
}

// TestCycleRelation pins the two-cycle worst case: every node of the
// a-cycle (Depth of them) pairs with every node of the b-cycle (Depth+1 of
// them, node 0 included) once k has wrapped both cycles.
func TestCycleRelation(t *testing.T) {
	if got := dyckCount(t, Spec{Kind: KindCycle, Nodes: 8, Depth: 3}); got != 3*4 {
		t.Fatalf("cycle(8,3) |R_S| = %d, want 12", got)
	}
}

// TestGridRelation pins the lattice: a^m b^m from (r,c) needs m columns of
// headroom right and m rows down, so level m contributes (k-m)² pairs.
func TestGridRelation(t *testing.T) {
	// k = 4: 3² + 2² + 1² = 14.
	if got := dyckCount(t, Spec{Kind: KindGrid, Nodes: 16}); got != 14 {
		t.Fatalf("grid(16) |R_S| = %d, want 14", got)
	}
}

// TestScaleFreeRelation has no closed form to pin: the relation is
// non-empty and (inside dyckCount) the same on every backend.
func TestScaleFreeRelation(t *testing.T) {
	if got := dyckCount(t, Spec{Kind: KindScaleFree, Nodes: 300, Degree: 3, Seed: 7}); got == 0 {
		t.Fatal("scale-free(300) |R_S| = 0")
	}
}

// TestGenerateDeterministic asserts equal specs yield identical graphs —
// the property the committed benchmark artifact rests on — and that the
// scale-free seed actually matters.
func TestGenerateDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		spec := Spec{Kind: kind, Nodes: 300, Seed: 7}
		a, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.Nodes() != spec.Nodes || a.Nodes() != b.Nodes() || a.EdgeCount() != b.EdgeCount() {
			t.Fatalf("%s: %d/%d nodes, %d/%d edges — want identical at %d nodes",
				kind, a.Nodes(), b.Nodes(), a.EdgeCount(), b.EdgeCount(), spec.Nodes)
		}
		ea, eb := a.Edges(), b.Edges()
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: edge %d differs between equal specs: %v vs %v", kind, i, ea[i], eb[i])
			}
		}
	}
	x, _ := Generate(Spec{Kind: KindScaleFree, Nodes: 300, Seed: 7})
	y, _ := Generate(Spec{Kind: KindScaleFree, Nodes: 300, Seed: 8})
	same := x.EdgeCount() == y.EdgeCount()
	if same {
		xe, ye := x.Edges(), y.Edges()
		for i := range xe {
			if xe[i] != ye[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("scale-free graphs with different seeds are identical")
	}
}

// TestGenerateValidation covers the error paths and depth clamping.
func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{Kind: KindChain, Nodes: 3}); err == nil {
		t.Error("3 nodes accepted")
	}
	if _, err := Generate(Spec{Kind: "mobius", Nodes: 100}); err == nil {
		t.Error("unknown kind accepted")
	}
	// A depth beyond what the chain can hold is clamped, not rejected.
	g, err := Generate(Spec{Kind: KindChain, Nodes: 9, Depth: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 8 {
		t.Errorf("clamped chain has %d edges, want 8", g.EdgeCount())
	}
}

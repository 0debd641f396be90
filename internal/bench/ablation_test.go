package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations touch the large datasets; skipped with -short")
	}
	tables, err := RunAblations(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Format(&buf, tables...)
	out := buf.String()
	for _, want := range []string{
		"Ablation 1: iteration schedule",
		"Ablation 2: dense vs sparse",
		"Ablation 3: frontier vs full closure",
		"funding", "copies", "strategy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}

	// The finding ablation 3 exists for: Query 1's frontier reaches every
	// row on both restriction sides, the directed ancestors walk's on neither.
	a3 := tables[2]
	grammar, side, frontier := column(t, a3, "grammar"), column(t, a3, "restrict"), column(t, a3, "frontier")
	strategy, planned := column(t, a3, "strategy"), map[string]string{"sources": "source-frontier", "targets": "target-frontier"}
	seen := map[string]int{}
	for _, r := range a3.Rows {
		seen[r[grammar].Text+"/"+r[side].Text]++
		if got := r[strategy].Text; got != planned[r[side].Text] {
			t.Errorf("%s %s %s: planned %q", r[0], r[grammar], r[side], got)
		}
		if sat := r[frontier].Text == "sat"; sat != (r[grammar].Text == "query1") {
			t.Errorf("%s %s %s: frontier reads %q", r[0], r[grammar], r[side], r[frontier])
		}
	}
	for _, cell := range []string{"ancestors/sources", "ancestors/targets", "query1/sources", "query1/targets"} {
		if seen[cell] != len(ablationOntologies) {
			t.Errorf("%s: %d rows, want one per ontology", cell, seen[cell])
		}
	}
}

package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunWarmStart(t *testing.T) {
	rows, err := RunWarmStart(WarmStartConfig{
		Datasets: []string{"skos"},
		Repeats:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Scenario != "warmstart" || r.Dataset != "skos" || r.Grammar != "query1" || r.Backend != "sparse" {
		t.Errorf("row identity: %+v", r)
	}
	if r.Entries == 0 || r.IndexBytes == 0 || r.ColdMS <= 0 || r.WarmMS <= 0 {
		t.Errorf("empty measurements: %+v", r)
	}
	// The whole point: a warm start answers without re-running the
	// closure. Asserted on the work, which is the same on every run — on
	// skos the closure is 0.6 ms, and warm < cold on two sub-millisecond
	// wall clocks is not (the timing columns are output, not a verdict).
	if r.ColdProducts == 0 || r.WarmProducts != 0 {
		t.Errorf("closure work before the first answer: cold %d products, warm %d; want some and none: %+v",
			r.ColdProducts, r.WarmProducts, r)
	}

	var buf bytes.Buffer
	FormatWarmStart(&buf, rows)
	if !strings.Contains(buf.String(), "skos") {
		t.Errorf("table output:\n%s", buf.String())
	}
	var js bytes.Buffer
	if err := WriteBenchJSON(&js, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"scenario": "warmstart"`) {
		t.Errorf("JSON output:\n%s", js.String())
	}
}

func TestRunWarmStartRejectsUnknowns(t *testing.T) {
	if _, err := RunWarmStart(WarmStartConfig{Datasets: []string{"nope"}}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := RunWarmStart(WarmStartConfig{Grammar: "nope"}); err == nil {
		t.Error("unknown grammar accepted")
	}
	if _, err := RunWarmStart(WarmStartConfig{Backend: "nope"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun smoke-tests the example end to end on the smallest dataset:
// all backends and the GLL baseline must report, plus witness paths.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "skos"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Dataset skos: 252 triples",
		"Query 1 grammar:",
		"dense",
		"sparse",
		"GLL baseline",
		"Query 2 single-path witnesses",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunUnknownDataset(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "no-such-dataset"); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// column returns the index of the named header column.
func column(t *testing.T, tab Table, name string) int {
	t.Helper()
	i := slices.Index(tab.Header, name)
	if i < 0 {
		t.Fatalf("%q has no column %q: %v", tab.Title, name, tab.Header)
	}
	return i
}

func TestRunTableQuick(t *testing.T) {
	// Small graphs only; one repeat. All implementations must agree on
	// #results (RunTable errors otherwise).
	tab, err := RunTable(t.Context(), Config{Query: 1, Repeats: 1, MaxTriples: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // skos, generations, travel, univ-bench
		t.Fatalf("got %d rows: %+v", len(tab.Rows), tab.Rows)
	}
	for _, r := range tab.Rows {
		if n, err := strconv.Atoi(r[column(t, tab, "#results")].Text); err != nil || n <= 0 {
			t.Errorf("%s: no results", r[0])
		}
		for _, name := range []string{"GLL", "dGPU", "sCPU"} {
			if tm := r[column(t, tab, name+"(ms)")].Time; tm == nil || tm.Runs != 1 {
				t.Errorf("%s: missing timing for %s", r[0], name)
			}
		}
	}
}

func TestRunTableQuery2(t *testing.T) {
	tab, err := RunTable(t.Context(), Config{Query: 2, Repeats: 1, MaxTriples: 280})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
}

// TestHarnessStopsWhenCancelled: a cancelled context stops the tables and
// the ablations with its error instead of running them to the end.
func TestHarnessStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := RunTable(ctx, Config{Query: 1, Repeats: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTable on a cancelled context: %v, want context.Canceled", err)
	}
	if tables, err := RunAblations(ctx, 1); !errors.Is(err, context.Canceled) || len(tables) != 0 {
		t.Errorf("RunAblations on a cancelled context: %d tables, %v; want none and context.Canceled", len(tables), err)
	}
}

func TestRunTableRejectsBadQuery(t *testing.T) {
	if _, err := RunTable(t.Context(), Config{Query: 3}); err == nil {
		t.Error("query 3 should be rejected")
	}
}

func TestFormatTable(t *testing.T) {
	tab, err := RunTable(t.Context(), Config{Query: 1, Repeats: 1, MaxTriples: 260})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Format(&buf, tab)
	out := buf.String()
	for _, want := range []string{"Table 1", "Ontology", "#triples", "#results", "skos", "sCPU(ms)"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}

	// The JSON form keeps a row on one line and reads back as written.
	rep := Report{Environment: CurrentEnvironment(1), Tables: []Table{tab}}
	buf.Reset()
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines > 40 {
		t.Errorf("one-row report takes %d lines:\n%s", lines, buf.String())
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("%v:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(back, rep) {
		t.Errorf("read back %+v, wrote %+v", back, rep)
	}
}

func TestImplementationsSkipDenseOnSynthetic(t *testing.T) {
	for _, impl := range Implementations(1) {
		if impl.Name == "dGPU" && !impl.SkipSynthetic {
			t.Error("dGPU must be skipped on g1–g3 (paper omits it there)")
		}
		if impl.Name != "dGPU" && impl.SkipSynthetic {
			t.Errorf("%s should run on synthetic graphs", impl.Name)
		}
	}
}

func TestMsFormat(t *testing.T) {
	if got := (Cell{}).String(); got != "—" {
		t.Errorf("missing time should render as dash, got %q", got)
	}
	if got := timed(Timing{Runs: 3, MinMS: 1.234, MedianMS: 2, MaxMS: 3}).String(); got != "1.23" {
		t.Errorf("a timed cell should render its minimum in ms, got %q", got)
	}
}

// TestCommittedPaperArtifact checks that BENCH_paper.json is what this
// harness writes: it decodes strictly into the harness's own types, says
// where it was measured, and its deterministic columns equal a fresh run.
func TestCommittedPaperArtifact(t *testing.T) {
	f, err := os.Open("../../BENCH_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("BENCH_paper.json: %v", err)
	}
	if env := rep.Environment; env.GoVersion == "" || env.GOOS == "" || env.GOARCH == "" || env.GOMAXPROCS < 1 || env.Repeats < 3 {
		t.Errorf("incomplete environment: %+v", env)
	}

	titles := map[string]Table{}
	for _, tab := range rep.Tables {
		titles[tab.Title] = tab
		for _, r := range tab.Rows {
			if len(r) != len(tab.Header) {
				t.Errorf("%s: row %v has %d cells under %d headers", tab.Title, r, len(r), len(tab.Header))
			}
			for _, c := range r {
				if tm := c.Time; tm != nil && (tm.Runs < 3 || tm.MinMS > tm.MedianMS || tm.MedianMS > tm.MaxMS) {
					t.Errorf("%s: %s: bad timing %+v", tab.Title, r[0], *tm)
				}
			}
		}
	}
	for _, want := range []string{"Ablation 1: ", "Ablation 2: ", "Ablation 3: "} {
		if !slices.ContainsFunc(rep.Tables, func(tab Table) bool { return strings.HasPrefix(tab.Title, want) }) {
			t.Errorf("no table titled %q…", want)
		}
	}

	for q := 1; q <= 2; q++ {
		fresh, err := RunTable(t.Context(), Config{Query: q, Repeats: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := titles[fresh.Title]
		if !ok || len(got.Rows) != 14 || !slices.Equal(got.Header, fresh.Header) {
			t.Fatalf("%q: committed %d rows under %v, want 14 under %v", fresh.Title, len(got.Rows), got.Header, fresh.Header)
		}
		dgpu := column(t, got, "dGPU(ms)")
		for i, r := range got.Rows {
			// Ontology, #triples, #results are deterministic.
			if !slices.Equal(r[:3], fresh.Rows[i][:3]) {
				t.Errorf("%s: committed %v, a fresh run gives %v", fresh.Title, r[:3], fresh.Rows[i][:3])
			}
			synthetic := slices.Contains([]string{"g1", "g2", "g3"}, r[0].Text)
			for j, c := range r[3:] {
				if wantAbsent := synthetic && 3+j == dgpu; (c.Time == nil) != wantAbsent {
					t.Errorf("%s: %s %s: timing present = %v", fresh.Title, r[0], got.Header[3+j], c.Time != nil)
				}
			}
		}
	}
}

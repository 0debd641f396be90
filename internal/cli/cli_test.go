package cli

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfpq"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var ctx = context.Background()

const sampleNT = "<a> <p> <b> .\n<b> <p> <c> .\n"
const sampleGrammar = "S -> p S | p\n"

func TestParseArgs(t *testing.T) {
	var errBuf bytes.Buffer
	cfg, err := ParseArgs([]string{
		"-graph", "g.nt", "-query", "q.g", "-start", "X",
		"-backend", "dense", "-semantics", "single-path",
		"-count", "-empty-paths", "-names",
	}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.GraphPath != "g.nt" || cfg.QueryPath != "q.g" || cfg.Start != "X" ||
		cfg.Backend != "dense" || cfg.Semantics != "single-path" ||
		!cfg.CountOnly || !cfg.EmptyPaths || !cfg.Names {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestParseArgsDefaults(t *testing.T) {
	var errBuf bytes.Buffer
	cfg, err := ParseArgs([]string{"-graph", "g.nt", "-query", "q.g"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Start != "S" || cfg.Backend != "sparse" || cfg.Semantics != "relational" {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestParseArgsMissingRequired(t *testing.T) {
	var errBuf bytes.Buffer
	if _, err := ParseArgs([]string{"-graph", "g.nt"}, &errBuf); err == nil {
		t.Error("missing -query should fail")
	}
	if _, err := ParseArgs(nil, &errBuf); err == nil {
		t.Error("missing both should fail")
	}
}

// TestBackendByName: every value -backend accepts resolves, the legacy
// names of the retired row-parallel kernels included.
func TestBackendByName(t *testing.T) {
	for _, name := range []string{"dense", "dense-parallel", "sparse", "sparse-parallel"} {
		if _, err := cfpq.BackendByName(name); err != nil {
			t.Errorf("cfpq.BackendByName(%s): %v", name, err)
		}
	}
	if _, err := cfpq.BackendByName("gpu"); err == nil {
		t.Error("unknown backend should fail")
	}
}

func TestRunRelational(t *testing.T) {
	dir := t.TempDir()
	cfg := &Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "relational",
	}
	var out bytes.Buffer
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	// Nodes a=0, b=1, c=2; p-edges 0→1→2 ⇒ pairs (0,1),(0,2),(1,2).
	want := "0\t1\n0\t2\n1\t2\n"
	if out.String() != want {
		t.Errorf("output = %q, want %q", out.String(), want)
	}
}

func TestRunNames(t *testing.T) {
	dir := t.TempDir()
	cfg := &Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "relational",
		Names:     true,
	}
	var out bytes.Buffer
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a\tb\n") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunCount(t *testing.T) {
	dir := t.TempDir()
	cfg := &Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "relational",
		CountOnly: true,
	}
	var out bytes.Buffer
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "3" {
		t.Errorf("count = %q, want 3", out.String())
	}
}

func TestRunSinglePath(t *testing.T) {
	dir := t.TempDir()
	cfg := &Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "single-path",
	}
	var out bytes.Buffer
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "len=") || !strings.Contains(lines[0], "p") {
		t.Errorf("line = %q", lines[0])
	}
}

// TestRunSinglePathBackendsAgree: -semantics single-path honours -backend,
// and the witnesses do not depend on it.
func TestRunSinglePathBackendsAgree(t *testing.T) {
	dir := t.TempDir()
	cfg := &Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Semantics: "single-path",
	}
	var want string
	for _, be := range cfpq.Backends() {
		cfg.Backend = be.Name()
		var out bytes.Buffer
		if err := Run(ctx, cfg, &out); err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if want == "" {
			want = out.String()
		}
		if out.String() != want || want == "" {
			t.Errorf("%s printed\n%s\nwant\n%s", be.Name(), out.String(), want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	good := &Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "relational",
	}
	var out bytes.Buffer
	cases := []func(Config) Config{
		func(c Config) Config { c.Backend = "bogus"; return c },
		func(c Config) Config { c.GraphPath = filepath.Join(dir, "missing.nt"); return c },
		func(c Config) Config { c.QueryPath = filepath.Join(dir, "missing.g"); return c },
		func(c Config) Config { c.Semantics = "bogus"; return c },
		func(c Config) Config { c.Start = "Nope"; return c },
	}
	for i, mutate := range cases {
		cfg := mutate(*good)
		if err := Run(ctx, &cfg, &out); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunBadInputFiles(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	badGraph := &Config{
		GraphPath: writeFile(t, dir, "bad.nt", "<a> <b> .\n"),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S", Backend: "sparse", Semantics: "relational",
	}
	if err := Run(ctx, badGraph, &out); err == nil {
		t.Error("malformed graph should fail")
	}
	badQuery := &Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "bad.g", "not a grammar\n"),
		Start:     "S", Backend: "sparse", Semantics: "relational",
	}
	if err := Run(ctx, badQuery, &out); err == nil {
		t.Error("malformed grammar should fail")
	}
}

func TestExecuteDirect(t *testing.T) {
	// Execute without the filesystem.
	g := graph.New(2)
	g.AddEdge(0, "x", 1)
	gram := grammar.MustParse("S -> x")
	be, _ := cfpq.BackendByName("dense")
	var out bytes.Buffer
	cfg := &Config{Start: "S", Semantics: "relational"}
	if err := Execute(ctx, cfg, g, nil, gram, be, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "0\t1\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunSources(t *testing.T) {
	dir := t.TempDir()
	base := Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "relational",
	}

	// Restricted to source b (node 1): only (1,2) of the full relation.
	cfg := base
	cfg.Sources = "b"
	var out bytes.Buffer
	if err := Run(ctx, &cfg, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1\t2\n" {
		t.Errorf("sources=b output = %q, want %q", out.String(), "1\t2\n")
	}

	// Decimal ids and multiple sources work too.
	cfg = base
	cfg.Sources = "0, 1"
	cfg.CountOnly = true
	out.Reset()
	if err := Run(ctx, &cfg, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "3" {
		t.Errorf("sources=0,1 count = %q, want 3", out.String())
	}

	// Unknown source nodes and non-relational semantics are rejected.
	cfg = base
	cfg.Sources = "nope"
	if err := Run(ctx, &cfg, &out); err == nil {
		t.Error("unknown source should fail")
	}
	cfg = base
	cfg.Sources = "b"
	cfg.Semantics = "single-path"
	if err := Run(ctx, &cfg, &out); err == nil {
		t.Error("-sources with single-path should fail")
	}
}

func TestSaveLoadIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gpath := writeFile(t, dir, "g.nt", sampleNT)
	qpath := writeFile(t, dir, "q.g", sampleGrammar)
	ixPath := filepath.Join(dir, "q.idx")

	// Evaluate, answer, save.
	var save bytes.Buffer
	cfg := &Config{GraphPath: gpath, QueryPath: qpath, Start: "S", Backend: "sparse", Semantics: "relational", SaveIndex: ixPath}
	if err := Run(ctx, cfg, &save); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ixPath); err != nil {
		t.Fatalf("index file not written: %v", err)
	}

	// Load: same answer, no closure run; sources filter through the index.
	var load bytes.Buffer
	cfg2 := &Config{GraphPath: gpath, QueryPath: qpath, Start: "S", Backend: "sparse", Semantics: "relational", LoadIndex: ixPath}
	if err := Run(ctx, cfg2, &load); err != nil {
		t.Fatal(err)
	}
	if save.String() != load.String() || load.Len() == 0 {
		t.Errorf("saved run:\n%s\nloaded run:\n%s", save.String(), load.String())
	}
	var fromA bytes.Buffer
	cfg3 := &Config{GraphPath: gpath, QueryPath: qpath, Start: "S", Backend: "sparse", Semantics: "relational", LoadIndex: ixPath, Sources: "a", Names: true, CountOnly: true}
	if err := Run(ctx, cfg3, &fromA); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(fromA.String()) != "2" {
		t.Errorf("count from <a> = %q, want 2", fromA.String())
	}
}

// TestLoadRetiredIndex: an index file in a retired format, CFPQIDX3 or
// CFPQIDX2, is refused with an error that names the format and says how to
// rebuild it, not as a bad magic. The reader refuses such a file by its
// magic alone, so a saved file restamped with it stands in for one.
func TestLoadRetiredIndex(t *testing.T) {
	dir := t.TempDir()
	gpath := writeFile(t, dir, "g.nt", sampleNT)
	qpath := writeFile(t, dir, "q.g", sampleGrammar)
	ixPath := filepath.Join(dir, "q.idx")
	var out bytes.Buffer
	cfg := &Config{GraphPath: gpath, QueryPath: qpath, Start: "S", Backend: "sparse", Semantics: "relational", SaveIndex: ixPath}
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ixPath)
	if err != nil || !bytes.HasPrefix(raw, []byte("CFPQIDX4")) {
		t.Fatalf("saved index starts %q (err %v), want CFPQIDX4", raw[:min(8, len(raw))], err)
	}
	for _, magic := range []string{"CFPQIDX3", "CFPQIDX2"} {
		copy(raw, magic)
		if err := os.WriteFile(ixPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg = &Config{GraphPath: gpath, QueryPath: qpath, Start: "S", Backend: "sparse", Semantics: "relational", LoadIndex: ixPath}
		err = Run(ctx, cfg, &out)
		if err == nil || !strings.Contains(err.Error(), "retired "+magic+" format") || !strings.Contains(err.Error(), "-save-index") {
			t.Errorf("loading a %s file: err = %v, want one naming the retired format and -save-index", magic, err)
		}
	}
}

func TestIndexFlagsRejectBadCombos(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, "p", 1)
	gram := grammar.MustParse(sampleGrammar)
	var out bytes.Buffer
	for _, cfg := range []*Config{
		{Start: "S", Semantics: "single-path", LoadIndex: "x"},
		{Start: "S", Semantics: "relational", EmptyPaths: true, SaveIndex: "x"},
	} {
		if err := Execute(ctx, cfg, g, nil, gram, BackendMust(t, "sparse"), &out); err == nil {
			t.Errorf("accepted %+v", cfg)
		}
	}
}

// BackendMust resolves a backend or fails the test.
func BackendMust(t *testing.T, name string) cfpq.Backend {
	t.Helper()
	be, err := cfpq.BackendByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

func TestRunTargetsAndExplain(t *testing.T) {
	dir := t.TempDir()
	base := Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "relational",
	}

	// Restricted to target c (node 2): the pairs entering c.
	cfg := base
	cfg.Targets = "c"
	var out bytes.Buffer
	if err := Run(ctx, &cfg, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "0\t2\n1\t2\n" {
		t.Errorf("targets=c output = %q, want %q", out.String(), "0\t2\n1\t2\n")
	}

	// -explain prefixes the plan; a target restriction names the
	// target-frontier strategy.
	cfg = base
	cfg.Targets = "c"
	cfg.Explain = true
	out.Reset()
	if err := Run(ctx, &cfg, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(out.String(), "\n", 2)
	if !strings.HasPrefix(lines[0], "# plan: target-frontier") {
		t.Errorf("explain line = %q", lines[0])
	}
	if lines[1] != "0\t2\n1\t2\n" {
		t.Errorf("explained output = %q", lines[1])
	}

	// Sources and targets combine into a pair restriction.
	cfg = base
	cfg.Sources = "a"
	cfg.Targets = "c"
	cfg.CountOnly = true
	out.Reset()
	if err := Run(ctx, &cfg, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "1" {
		t.Errorf("pair-restricted count = %q, want 1", out.String())
	}

	// Unknown target nodes and non-relational semantics are rejected.
	cfg = base
	cfg.Targets = "nope"
	if err := Run(ctx, &cfg, &out); err == nil {
		t.Error("unknown target should fail")
	}
	cfg = base
	cfg.Targets = "c"
	cfg.Semantics = "single-path"
	if err := Run(ctx, &cfg, &out); err == nil {
		t.Error("-targets with single-path should fail")
	}
	cfg = base
	cfg.Explain = true
	cfg.Semantics = "single-path"
	if err := Run(ctx, &cfg, &out); err == nil {
		t.Error("-explain with single-path should fail")
	}
}

func TestLoadIndexExplainIsCachedRead(t *testing.T) {
	dir := t.TempDir()
	idx := filepath.Join(dir, "s.idx")
	base := Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "relational",
	}
	cfg := base
	cfg.SaveIndex = idx
	var out bytes.Buffer
	if err := Run(ctx, &cfg, &out); err != nil {
		t.Fatal(err)
	}

	cfg = base
	cfg.LoadIndex = idx
	cfg.Targets = "c"
	cfg.Explain = true
	out.Reset()
	if err := Run(ctx, &cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "# plan: cached-read") {
		t.Errorf("load-index explain = %q", out.String())
	}
	if !strings.HasSuffix(out.String(), "0\t2\n1\t2\n") {
		t.Errorf("load-index output = %q", out.String())
	}
}

// TestRunLimitTruncation pins the -limit flag: the pair list is clipped,
// and -explain flags the clip instead of passing the prefix off as the
// whole relation.
func TestRunLimitTruncation(t *testing.T) {
	dir := t.TempDir()
	cfg := &Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "relational",
		Explain:   true,
		Limit:     2,
	}
	var out bytes.Buffer
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "# truncated: more pairs exist beyond -limit 2") {
		t.Errorf("missing truncation note:\n%s", got)
	}
	if lines := strings.Count(got, "\t"); lines != 2 {
		t.Errorf("printed %d pairs, want 2:\n%s", lines, got)
	}

	// A limit the 3-pair relation fits under prints no note.
	cfg.Limit = 3
	out.Reset()
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "# truncated") {
		t.Errorf("unclipped run flagged truncation:\n%s", out.String())
	}

	// -limit is relational-only, like the other planner flags.
	cfg.Semantics = "single-path"
	cfg.Explain = false
	cfg.Limit = 1
	if err := Run(ctx, cfg, &out); err == nil {
		t.Error("-limit accepted under single-path semantics")
	}
}

func TestRunTrace(t *testing.T) {
	dir := t.TempDir()
	cfg := &Config{
		GraphPath: writeFile(t, dir, "g.nt", sampleNT),
		QueryPath: writeFile(t, dir, "q.g", sampleGrammar),
		Start:     "S",
		Backend:   "sparse",
		Semantics: "relational",
		Trace:     true,
	}
	var out bytes.Buffer
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "# trace: phase") {
		t.Errorf("missing trace header:\n%s", got)
	}
	// The table reports at least the seeding step and one fixpoint pass,
	// then the pairs follow uncommented.
	if n := strings.Count(got, "# trace:"); n < 3 {
		t.Errorf("trace has %d lines, want header + >=2 passes:\n%s", n, got)
	}
	if !strings.Contains(got, "0\t1\n") {
		t.Errorf("pairs missing after trace:\n%s", got)
	}

	// A cached read through -load-index runs no passes and says so.
	idx := filepath.Join(dir, "g.idx")
	cfg.Trace = false
	cfg.SaveIndex = idx
	out.Reset()
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	cfg.SaveIndex = ""
	cfg.LoadIndex = idx
	cfg.Trace = true
	out.Reset()
	if err := Run(ctx, cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# trace: no passes (cached read)") {
		t.Errorf("cached read trace note missing:\n%s", out.String())
	}

	// -trace is relational-only, like the other planner flags.
	cfg.LoadIndex = ""
	cfg.Semantics = "single-path"
	if err := Run(ctx, cfg, &out); err == nil {
		t.Error("-trace accepted under single-path semantics")
	}
}

// Command benchmark is the repository's benchmark: it builds ./cmd/cfpqd,
// runs it as a child process on a fresh data dir, drives four workloads
// over loopback HTTP, checks every answer against an independent oracle and
// prints every metric by name with its unit. See README.md beside this file.
//
//	go run ./benchmark                      all four workloads, end-to-end metrics
//	go run ./benchmark -trace               the traced run: per-layer metrics and span files
//	go run ./benchmark -workload serve_read -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -compare base.json head.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

// runDeadline bounds one whole invocation; the contract allows a single
// workload 180 s, and the full run has four of them.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs lets `-trace` stand alone as the issue writes it and take a
// value as the driver passes it (`--trace 0`): a Go bool flag would read the
// value as a positional argument and stop parsing.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if a := strings.TrimLeft(args[i], "-"); a == "trace" && args[i] != a {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
			out = append(out, "-trace=1")
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// runFile is what -out writes and -compare reads.
type runFile struct {
	Env     map[string]string  `json:"env"`
	Seed    int64              `json:"seed"`
	Seconds float64            `json:"seconds"`
	Trace   bool               `json:"trace"`
	Results map[string]*result `json:"workloads"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (cold_deep, cold_wide, serve_read, serve_write); empty runs all four")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "length of each workload's measured window")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file per workload")
	out := fs.String("out", "", "also write the run's metrics to this JSON file")
	smoke := fs.Bool("smoke", false, "tiny inputs and windows, for tests")
	compare := fs.String("compare", "", "compare this base run file with the head run file given as argument; each may be a comma-separated list of runs")
	pins := fs.Bool("pins", false, "print the digests of the seed-1 inputs, the content of pins.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *pins {
		p, err := computePins()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		raw, _ := json.MarshalIndent(p, "", "  ")
		fmt.Fprintln(stdout, string(raw))
		return 0
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: benchmark -compare base.json[,base2.json...] head.json[,head2.json...]")
			return 2
		}
		return compareFiles(*compare, fs.Arg(0), stdout, stderr)
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(len(names))*runDeadline)
	defer cancel()
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	e, cleanup, err := newEnv(ctx, *seed, *seconds, *smoke, *trace == 1)
	defer cleanup()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	file := runFile{Env: environment(e.root), Seed: *seed, Seconds: *seconds, Trace: e.trace, Results: map[string]*result{}}
	ok := true
	for _, name := range names {
		res, ti, err := e.run(name)
		if err == nil && e.trace {
			err = e.traceLayers(res, ti)
		}
		if err != nil {
			// Children and scratch directories go with cleanup; no result
			// line is printed for a run that could not finish.
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		file.Results[name] = res
		printResult(stdout, res, e.trace)
		ok = ok && res.Failed == 0
	}
	if *out != "" {
		raw, _ := json.MarshalIndent(file, "", "  ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *workload != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object with the run's verdict and metrics.
		fmt.Fprintln(stdout, resultLine(file.Results[*workload], e.trace))
	}
	if !ok {
		return 1
	}
	return 0
}

// newEnv finds the program under test, builds it, and makes this
// invocation's scratch directory under benchmark/out. The returned cleanup
// kills every child still running and removes the scratch directory.
func newEnv(ctx context.Context, seed int64, seconds float64, smoke, trace bool) (*env, func(), error) {
	e := &env{ctx: ctx, seed: seed, seconds: seconds, smoke: smoke, trace: trace, procs: &procs{}, sz: fullSizes}
	if smoke {
		e.sz = smokeSizes
	}
	cleanup := func() {
		e.procs.killAll()
		if e.runDir != "" {
			os.RemoveAll(e.runDir)
		}
	}
	if err := json.Unmarshal(pinsJSON, &e.pins); err != nil {
		return e, cleanup, fmt.Errorf("benchmark: pins.json: %w", err)
	}
	var err error
	if e.root, err = moduleRoot(); err != nil {
		return e, cleanup, err
	}
	e.outDir = filepath.Join(e.root, "benchmark", "out")
	e.runDir = filepath.Join(e.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	sweepStale(e.outDir)
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return e, cleanup, err
	}
	e.bin, e.build, err = buildServer(ctx, e.root, e.runDir)
	return e, cleanup, err
}

// sweepStale removes the scratch of earlier invocations that were killed
// before they could clean up: run-<pid> directories whose process is gone.
func sweepStale(outDir string) {
	dirs, _ := filepath.Glob(filepath.Join(outDir, "run-*"))
	for _, dir := range dirs {
		pid := strings.TrimPrefix(filepath.Base(dir), "run-")
		if _, err := os.Stat(filepath.Join("/proc", pid)); os.IsNotExist(err) {
			os.RemoveAll(dir)
		}
	}
}

// environment records where the numbers were taken.
func environment(root string) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(raw))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if raw, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(raw))
	}
	return env
}

// printResult is the human table: every metric by name, value, unit and
// sample count.
func printResult(w io.Writer, res *result, trace bool) {
	fmt.Fprintf(w, "== %s: %d ops and checks attempted, %d failed (failed_ratio %.6f)\n",
		res.Workload, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, d := range endToEnd {
		m := res.EndToEnd[d.name]
		fmt.Fprintf(w, "   %-34s %14.4f %-6s n=%d\n", d.name, m.Value, m.Unit, m.N)
	}
	for _, name := range sortedKeys(res.PerLayer) {
		m := res.PerLayer[name]
		if !trace && m.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "   %-34s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}

// resultLine renders the driver's JSON object: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one.
func resultLine(res *result, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs, have := endToEnd, res.EndToEnd
	if trace {
		defs, have = perLayer, res.PerLayer
	}
	correct := res.Failed == 0
	for _, d := range defs {
		m := have[d.name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value <= 0) {
			// An end-to-end metric is never zero; one that is means the
			// run did not measure what it claims to.
			correct = false
			m.Value = 0
		}
		metrics[d.name] = value{m.Value, d.unit}
	}
	raw, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(raw)
}

// sortedKeys lists a metric map's names in printing order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

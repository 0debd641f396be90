package main

// -compare: one row per (bounded metric, workload) of two sets of runs, with
// both medians, the ratio with its base, and a verdict by the metric's own
// direction and bound.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the head runs of one metric with the base runs. A metric
// whose run-to-run spread is wider than its bound cannot be called
// unchanged: it is unresolved, unless every head run beats every base run.
// Otherwise a median worse by more than the bound is a regression.
func judge(d def, base, head []float64) (ratio, sp float64, verdict string) {
	b, h := medianOf(base), medianOf(head)
	if b == 0 {
		return 0, 0, verdictUnresolved
	}
	ratio = h / b
	worse := ratio - 1
	better := func(x, y float64) bool { return x < y }
	if d.better == "higher" {
		worse = 1 - ratio
		better = func(x, y float64) bool { return x > y }
	}
	allBetter := true
	for _, x := range head {
		for _, y := range base {
			allBetter = allBetter && better(x, y)
		}
	}
	sp = max(spread(base), spread(head))
	switch {
	case sp > d.bound && !allBetter:
		verdict = verdictUnresolved
	case worse > d.bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return ratio, sp, verdict
}

func loadRuns(list string) ([]runFile, error) {
	var runs []runFile
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, rf)
	}
	return runs, nil
}

// valuesOf collects one metric of one workload across runs; runs that did
// not report it (or reported 0: the layer was not exercised) are left out.
func valuesOf(runs []runFile, workload, name string) []float64 {
	var out []float64
	for _, rf := range runs {
		res := rf.Results[workload]
		if res == nil {
			continue
		}
		m, ok := res.EndToEnd[name]
		if !ok {
			m = res.PerLayer[name]
		}
		if m.Value != 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareFiles(baseList, headList string, stdout, stderr io.Writer) int {
	base, err := loadRuns(baseList)
	if err == nil {
		var head []runFile
		if head, err = loadRuns(headList); err == nil {
			return compareRuns(base, head, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark: -compare:", err)
	return 2
}

func compareRuns(base, head []runFile, w io.Writer) int {
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %16s %6s %7s  %s\n",
		"workload", "metric", "base", "head", "head/base", "bound", "spread", "verdict")
	regressed := 0
	for _, wl := range workloadNames {
		failed := 0
		for _, rf := range head {
			if res := rf.Results[wl]; res != nil {
				failed += res.Failed
			}
		}
		if failed > 0 {
			fmt.Fprintf(w, "%-12s %-28s %d failed ops or checks in the head runs  %s\n", wl, "failed_ratio", failed, verdictRegressed)
			regressed++
		}
		for _, d := range append(append([]def(nil), endToEnd...), perLayer...) {
			if d.bound == 0 {
				continue
			}
			b, h := valuesOf(base, wl, d.name), valuesOf(head, wl, d.name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			ratio, sp, verdict := judge(d, b, h)
			fmt.Fprintf(w, "%-12s %-28s %14.4f %14.4f %8.4f of %-7.4g %6.2f %7.4f  %s\n",
				wl, d.name, medianOf(b), medianOf(h), ratio, medianOf(b), d.bound, sp, verdict)
			if verdict == verdictRegressed {
				regressed++
			}
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}

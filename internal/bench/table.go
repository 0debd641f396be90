package bench

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Table is the one shape every measurement of this package takes — the
// paper's two tables and the ablations alike: Format renders it as text and
// WriteJSON records it in BENCH_paper.json.
type Table struct {
	Title  string   `json:"title"`
	Header []string `json:"header"`
	Rows   [][]Cell `json:"rows"`
}

// Cell is one table entry: a label or number (Text), a timed measurement
// (Time), or — both unset — a cell the study leaves out, such as dGPU on
// g1–g3.
type Cell struct {
	Text string  `json:"text,omitempty"`
	Time *Timing `json:"time,omitempty"`
}

// Timing summarises the wall clocks of the timed runs of one cell.
type Timing struct {
	Runs     int     `json:"runs"`
	MinMS    float64 `json:"min_ms"`
	MedianMS float64 `json:"median_ms"`
	MaxMS    float64 `json:"max_ms"`
}

func text(s string) Cell     { return Cell{Text: s} }
func num(n int) Cell         { return Cell{Text: strconv.Itoa(n)} }
func timed(t Timing) Cell    { return Cell{Time: &t} }
func ratio(a, b Timing) Cell { return Cell{Text: fmt.Sprintf("%.1fx", a.MinMS/b.MinMS)} }

// String is the cell as Format prints it; a timed cell prints its fastest
// run, as the paper's tables do.
func (c Cell) String() string {
	if c.Time != nil {
		return fmt.Sprintf("%.2f", c.Time.MinMS)
	}
	return cmp.Or(c.Text, "—")
}

// measure times run repeats times (fewer than one means three) and returns
// the summary with the last run's value. The first error — run's, or ctx's
// before a run — lands in *first, and nothing runs while it is set, so a
// table checks it once, at its end.
func measure[T any](ctx context.Context, repeats int, first *error, run func() (T, error)) (Timing, T) {
	if repeats < 1 {
		repeats = 3
	}
	ms := make([]float64, repeats)
	var out T
	for r := range ms {
		if *first == nil {
			*first = ctx.Err()
		}
		if *first != nil {
			return Timing{}, out
		}
		start := time.Now()
		out, *first = run()
		ms[r] = float64(time.Since(start).Microseconds()) / 1000
	}
	sort.Float64s(ms)
	return Timing{
		Runs:     repeats,
		MinMS:    ms[0],
		MedianMS: (ms[(repeats-1)/2] + ms[repeats/2]) / 2,
		MaxMS:    ms[repeats-1],
	}, out
}

// Format renders tables as text, columns right-aligned.
func Format(w io.Writer, tables ...Table) {
	for _, t := range tables {
		fmt.Fprintf(w, "%s\n\n", t.Title)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, strings.Join(t.Header, "\t")+"\t")
		for _, row := range t.Rows {
			for _, c := range row {
				fmt.Fprint(tw, c, "\t")
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
}

// Report is the BENCH_paper.json document: the tables of one cfpq-bench
// run and where they were measured.
type Report struct {
	Environment Environment `json:"environment"`
	Tables      []Table     `json:"tables"`
}

// Environment says what produced a Report's timings. CPU is the model
// /proc/cpuinfo names; Revision and Modified are the VCS stamp of the binary
// ("go build" stamps, "go run" only with -buildvcs=true), Modified meaning
// uncommitted changes on top of Revision. Each is empty when unknown.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu,omitempty"`
	Revision   string `json:"vcs_revision,omitempty"`
	Modified   bool   `json:"vcs_modified,omitempty"`
	Repeats    int    `json:"repeats"`
}

var cpuModel = regexp.MustCompile(`(?m)^model name\s*:\s*(.*\S)`)

// CurrentEnvironment describes this process, for a run of repeats timed
// runs per cell.
func CurrentEnvironment(repeats int) Environment {
	env := Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Repeats:    repeats,
	}
	data, _ := os.ReadFile("/proc/cpuinfo") // unreadable (not Linux): CPU stays empty
	if m := cpuModel.FindSubmatch(data); m != nil {
		env.CPU = string(m[1])
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

var rowBreaks = regexp.MustCompile(`\n {10,}|\n {8}(\])`)

// WriteJSON writes the report as indented JSON minus the line breaks inside
// a table row — before anything nested deeper than the row's bracket and
// before its close — so a seven-column row is one line, not 45.
func WriteJSON(w io.Writer, r Report) error {
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(rowBreaks.ReplaceAll(doc, []byte("$1")), '\n'))
	return err
}

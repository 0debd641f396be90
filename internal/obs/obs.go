// Package obs is the process-local metrics substrate of the serving stack:
// counters, gauges and fixed-bucket histograms (the last two labeled or
// not), and a Prometheus text-format encoder.
//
// The hot paths are lock-free but for one: a Counter or Gauge is one atomic
// word, a Histogram Observe is two atomic adds (bucket + sum) after a
// bounds scan, and a Vec's With finds its label set in a map under the
// family's mutex, without allocating. Other mutexes appear only on the
// cold paths — registering a family and scraping.
//
// Every Registry is self-contained (nothing package-global, unlike expvar),
// so tests and multi-Service processes can each hold their own without
// re-registration panics.
//
// Metric names are enforced at registration, vet-style: snake_case, and a
// kind-appropriate unit suffix (counters end in _total; histograms and
// gauges end in a unit such as _seconds or _bytes — see CheckName). A bad
// name panics at registration so it cannot reach a scrape.
package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, as rendered in the # TYPE line.
type Kind int

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

var (
	nameRe  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	labelRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

	// unitSuffixes are the accepted trailing units for gauge and histogram
	// names; counters end in _total instead.
	unitSuffixes = []string{"_seconds", "_bytes", "_records", "_entries", "_ratio", "_info"}
)

// CheckName validates a metric family name: snake_case throughout, and a
// kind-appropriate unit suffix — _total for counters, one of _seconds,
// _bytes, _records, _entries, _ratio or _info for gauges and histograms.
func CheckName(kind Kind, name string) error {
	if !nameRe.MatchString(name) {
		return fmt.Errorf("obs: metric name %q is not snake_case", name)
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("obs: counter %q must end in _total", name)
		}
	default:
		for _, s := range unitSuffixes {
			if strings.HasSuffix(name, s) {
				return nil
			}
		}
		return fmt.Errorf("obs: %s %q must end in a unit suffix (%s)", kind, name, strings.Join(unitSuffixes, ", "))
	}
	return nil
}

// CheckLabel validates a label name: lowercase snake_case, the same rule
// registration enforces with a panic.
func CheckLabel(name string) error {
	if !labelRe.MatchString(name) {
		return fmt.Errorf("obs: invalid label name %q", name)
	}
	return nil
}

// DefLatencyBuckets are the default histogram bounds for second-valued
// latencies, exponential from 5ms to 10s.
var DefLatencyBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing metric. The zero value outside a
// Registry is usable but unscraped.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits in one
// atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bounds are the
// inclusive upper bounds of the finite buckets, strictly increasing; an
// implicit +Inf bucket catches the rest. Observe is lock-free: one atomic
// add on the bucket, one CAS loop on the sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %v", bounds[i]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// child is one label combination of a family.
type child struct {
	labelValues []string
	metric      any // *Counter, *Gauge or *Histogram
}

// family is one named metric with its label schema and children.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child // by joined label values
	fn       func() float64
	fnKind   bool // value read from fn at scrape time
}

// child returns the child of one label-value combination, creating it on
// first use; finding an existing one allocates nothing.
func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	// The values joined with \xff: injective enough for practical labels.
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, 0xff)
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[string(key)]; c != nil {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.metric = new(Counter)
	case KindGauge:
		c.metric = new(Gauge)
	case KindHistogram:
		c.metric = newHistogram(f.buckets)
	}
	f.children[string(key)] = c
	return c
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a family, panicking on duplicate or invalid names — both
// are programming errors better caught at startup than at scrape.
func (r *Registry) register(f *family) *family {
	if err := CheckName(f.kind, f.name); err != nil {
		panic(err)
	}
	for _, l := range f.labels {
		if err := CheckLabel(l); err != nil {
			panic(fmt.Sprintf("obs: metric %s: %v", f.name, err))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %s registered twice", f.name))
	}
	f.children = make(map[string]*child)
	r.families = append(r.families, f)
	r.byName[f.name] = f
	return f
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, kind: KindCounter})
	return f.child(nil).metric.(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time, for monotone counts owned by another structure (a store's write
// counters, a sum over live objects).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindCounter, fn: fn, fnKind: true})
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: KindCounter, labels: labels})}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(&family{name: name, help: help, kind: KindGauge, labels: labels})}
}

// GaugeFunc registers a gauge computed by fn at scrape time (collect-on-
// scrape: replication lag, store sizes and the like need no background
// updater).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindGauge, fn: fn, fnKind: true})
}

// Histogram registers an unlabeled fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(&family{name: name, help: help, kind: KindHistogram, buckets: buckets})
	return f.child(nil).metric.(*Histogram)
}

// HistogramVec registers a labeled fixed-bucket histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{name: name, help: help, kind: KindHistogram, buckets: buckets, labels: labels})}
}

// Names returns every registered family name, in registration order — the
// hook the metric-name convention test walks.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.families))
	for i, f := range r.families {
		out[i] = f.name
	}
	return out
}

// Sample is one scalar reading of a counter or gauge: the family name and
// kind, and for a labeled child its label values.
type Sample struct {
	Name        string
	Kind        Kind
	LabelValues []string
	Value       float64
}

// Samples reads every counter and gauge — func-backed ones included, one
// Sample per child, in registration order with children sorted by label
// values — so a second rendering (cfpqd's /debug/vars) shows the same
// numbers /metrics does without keeping a copy of them. Histograms have
// no scalar reading and are skipped.
func (r *Registry) Samples() []Sample {
	var out []Sample
	for _, f := range r.snapshot() {
		if f.kind == KindHistogram {
			continue
		}
		if f.fnKind {
			out = append(out, Sample{Name: f.name, Kind: f.kind, Value: f.fn()})
			continue
		}
		for _, c := range f.sortedChildren() {
			sm := Sample{Name: f.name, Kind: f.kind, LabelValues: c.labelValues}
			switch m := c.metric.(type) {
			case *Counter:
				sm.Value = float64(m.Value())
			case *Gauge:
				sm.Value = m.Value()
			}
			out = append(out, sm)
		}
	}
	return out
}

// snapshot copies the family list so rendering runs without r.mu.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.families...)
}

// sortedChildren returns the family's children ordered by label values.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	children := make([]*child, 0, len(f.children))
	for _, key := range slices.Sorted(maps.Keys(f.children)) {
		children = append(children, f.children[key])
	}
	return children
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter of one label-value combination.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).metric.(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge of one label-value combination.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues).metric.(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram of one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).metric.(*Histogram)
}

// ServeHTTP renders the registry in Prometheus text format, making a
// *Registry mountable directly at GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

// WritePrometheus writes every family in the Prometheus text exposition
// format: # HELP and # TYPE lines, then one sample line per child (or per
// bucket, for histograms), children sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) {
	b := &strings.Builder{}
	for _, f := range r.snapshot() {
		b.Reset()
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
		if f.fnKind {
			fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.fn()))
			io.WriteString(w, b.String())
			continue
		}
		for _, c := range f.sortedChildren() {
			writeChild(b, f, c)
		}
		io.WriteString(w, b.String())
	}
}

func writeChild(b *strings.Builder, f *family, c *child) {
	switch m := c.metric.(type) {
	case *Counter:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), m.Value())
	case *Gauge:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""), formatFloat(m.Value()))
	case *Histogram:
		// Cumulative buckets: each le bound counts every observation ≤ it,
		// ending in the +Inf bucket, which equals _count.
		var cum uint64
		for i, bound := range m.bounds {
			cum += m.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labelValues, "le", formatFloat(bound)), cum)
		}
		cum += m.counts[len(m.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labelValues, "le", "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""), formatFloat(m.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), cum)
	}
}

// labelString renders {k="v",...}, optionally with one extra pair (the
// histogram le label); empty label sets render as nothing.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	b := &strings.Builder{}
	b.WriteByte('{')
	// The %q verb adds the quotes and escapes \, " and newlines — exactly
	// the exposition format's label escaping.
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s=%q`, n, values[i])
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s=%q`, extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes backslashes and newlines in help text.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: integers without
// an exponent, everything else in Go's shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

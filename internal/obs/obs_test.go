package obs

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCheckName(t *testing.T) {
	cases := []struct {
		kind Kind
		name string
		ok   bool
	}{
		{KindCounter, "cfpqd_queries_total", true},
		{KindCounter, "cfpqd_queries", false},        // no _total
		{KindCounter, "cfpqd_Queries_total", false},  // not snake_case
		{KindCounter, "cfpqd__queries_total", false}, // empty segment
		{KindGauge, "cfpqd_replication_lag_records", true},
		{KindGauge, "cfpqd_build_info", true},
		{KindGauge, "cfpqd_lag", false}, // no unit suffix
		{KindHistogram, "cfpqd_http_request_duration_seconds", true},
		{KindHistogram, "cfpqd_http_request_duration", false},
		{KindHistogram, "9starts_with_digit_seconds", false},
	}
	for _, c := range cases {
		err := CheckName(c.kind, c.name)
		if (err == nil) != c.ok {
			t.Errorf("CheckName(%v, %q) = %v, want ok=%v", c.kind, c.name, err, c.ok)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "")
	mustPanic("duplicate", func() { r.Counter("dup_total", "") })
	mustPanic("bad name", func() { r.GaugeVec("camelCase_bytes", "") })
	mustPanic("bad label", func() { r.GaugeVec("x_bytes", "", "BadLabel") })
	mustPanic("bad buckets", func() { r.Histogram("h_seconds", "", []float64{1, 1}) })
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	v := r.GaugeVec("depth_entries", "depth", "queue")
	v.With("a").Set(3)
	v.With("a").Set(1.5)
	v.With("b").Set(2)
	if got := v.With("a").Value(); got != 1.5 {
		t.Fatalf("gauge a = %v, want 1.5", got)
	}
	if got := v.With("b").Value(); got != 2 {
		t.Fatalf("gauge b = %v, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-106) > 1e-9 {
		t.Fatalf("sum = %v, want 106", got)
	}
	// Per-bucket (non-cumulative): ≤1: {0.5, 1}, ≤2: {1.5}, ≤4: {3}, +Inf: {100}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

// TestEncoder checks the exposition format end to end, including
// histogram bucket cumulativeness and label escaping.
func TestEncoder(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "a plain counter").Add(7)
	r.GaugeVec("labeled_bytes", "labeled", "route", "status").With(`/v1/"q"`, "200").Set(1)
	r.GaugeFunc("scraped_bytes", "computed at scrape", func() float64 { return 42 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE plain_total counter\nplain_total 7\n",
		"# TYPE labeled_bytes gauge\n" + `labeled_bytes{route="/v1/\"q\"",status="200"} 1` + "\n",
		"# TYPE scraped_bytes gauge\nscraped_bytes 42\n",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

// TestConcurrentObserve hammers one histogram and one counter from many
// goroutines while scraping — the -race exercise for the lock-free paths;
// it also asserts rendered buckets stay monotone mid-flight.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("work_seconds", "", DefLatencyBuckets, "kind")
	c := r.Counter("work_total", "")
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.With("a").Observe(float64(i%100) / 100)
				c.Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			r.WritePrometheus(&sb)
			assertMonotoneBuckets(t, sb.String())
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	if got := h.With("a").Count(); got != workers*each {
		t.Fatalf("histogram count = %d, want %d", got, workers*each)
	}
}

// TestSeriesLookupAllocatesNothing: observing into a labeled series that
// exists allocates nothing, whatever strings name it.
func TestSeriesLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("request_duration_seconds", "", DefLatencyBuckets, "route", "backend", "status")
	route, backend, status := "POST /v1/query", "sparse", strconv.Itoa(200)
	h.With(route, backend, status).Observe(0.001)
	route = strings.Clone(route) // a fresh string equal to the series' own
	if n := testing.AllocsPerRun(100, func() { h.With(route, backend, status).Observe(0.002) }); n != 0 {
		t.Errorf("an observation into an existing series allocated %v times", n)
	}
	if got := h.With("POST /v1/query", "sparse", "200").Count(); got != 102 {
		t.Errorf("the series holds %d observations, want 102", got)
	}
}

// assertMonotoneBuckets parses _bucket lines out of an exposition dump and
// checks each series' cumulative counts never decrease with rising le.
func assertMonotoneBuckets(t *testing.T, out string) {
	t.Helper()
	last := map[string]uint64{} // series (name+labels sans le) -> previous cumulative
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		name, value, ok := strings.Cut(line, "} ")
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		series, le := splitLe(name)
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < last[series] {
			t.Fatalf("bucket %s le=%s went backwards: %d < %d", series, le, n, last[series])
		}
		last[series] = n
	}
}

// splitLe removes the le label from a bucket series name, returning the
// series identity and the bound.
func splitLe(name string) (series, le string) {
	i := strings.Index(name, `le="`)
	if i < 0 {
		return name, ""
	}
	rest := name[i+len(`le="`):]
	j := strings.IndexByte(rest, '"')
	return name[:i] + rest[j+1:], rest[:j]
}

func TestSamples(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	v := r.GaugeVec("b_bytes", "", "kind")
	v.With("y").Set(1)
	v.With("x").Set(2)
	r.GaugeFunc("c_bytes", "", func() float64 { return 1.5 })
	r.Histogram("d_seconds", "", DefLatencyBuckets).Observe(1) // no scalar reading: skipped
	got := r.Samples()
	want := []Sample{
		{Name: "a_total", Kind: KindCounter, Value: 3},
		{Name: "b_bytes", Kind: KindGauge, LabelValues: []string{"x"}, Value: 2},
		{Name: "b_bytes", Kind: KindGauge, LabelValues: []string{"y"}, Value: 1},
		{Name: "c_bytes", Kind: KindGauge, Value: 1.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Samples() = %+v, want %+v", got, want)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cfpq/internal/baseline"
	"cfpq/internal/matrix"
	"cfpq/internal/server"
)

// TestSmoke runs all four workloads and the traced pass at smoke size
// against a real cfpqd child and requires every named metric to be there.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots cfpqd")
	}
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-seconds", "0.4", "-trace", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rf runFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		res := rf.Results[wl]
		if res == nil {
			t.Fatalf("%s: no result", wl)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", wl, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range endToEnd {
			m, ok := res.EndToEnd[d.name]
			if !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", wl, d.name, m, ok)
			}
		}
		for _, d := range perLayer {
			m, ok := res.PerLayer[d.name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
				t.Errorf("%s: per-layer %s = %+v (present %v)", wl, d.name, m, ok)
			}
		}
		if _, err := os.Stat(filepath.Join("out", "trace-"+wl+".json")); err != nil {
			t.Errorf("%s: no span file: %v", wl, err)
		}
		// Every layer the workload is there to exercise must have measured.
		for _, name := range exercised[wl] {
			if res.PerLayer[name].Value <= 0 {
				t.Errorf("%s: %s reads %v, want a measurement", wl, name, res.PerLayer[name].Value)
			}
		}
	}
	// The driver's line, rendered from the same results.
	for _, trace := range []bool{false, true} {
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(resultLine(rf.Results["serve_write"], trace)), &line); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if trace {
			want = len(perLayer)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != want {
			t.Errorf("trace=%v: result line %+v, want %d metrics", trace, line, want)
		}
	}
}

var exercised = map[string][]string{
	"cold_deep":   {"core.close_ms.chain10k", "core.passes.cycle32", "server.cold_self_ms", "cfpq.prepare_self_ms", "matrix.addmul_round_ms", "client.p50_ms.chain10k"},
	"cold_wide":   {"core.close_ms.sf100k", "core.close_ms.g3q1", "store.save_index_ms", "graph.clone_ms", "client.p50_ms.grid4096"},
	"serve_read":  {"cfpq.do_us.pairs_from", "server.handler_self_us.exists", "wire.self_us.count", "core.frontier_ms", "server.encode_ns_per_pair", "client.p99_us.rpq_from"},
	"serve_write": {"store.append_ms", "core.update_ms", "replica.apply_ms_per_batch", "cfpq.publish_us", "client.push_p50_ms", "client.follower_push_p50_ms", "store.replayed_records", "server.read_slowdown_under_write"},
}

func TestArithmetic(t *testing.T) {
	s := sample{40 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond, 20 * time.Millisecond}
	if got := s.median(); got != 25*time.Millisecond {
		t.Errorf("median = %v, want 25ms", got)
	}
	if got := s.percentile(1); got != 40*time.Millisecond {
		t.Errorf("p100 = %v, want 40ms", got)
	}
	if got := s.percentile(0.25); got != 17500*time.Microsecond {
		t.Errorf("p25 = %v, want 17.5ms", got)
	}
	if got := (sample{}).median(); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	if got := geomean(2, 8); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := geomean(0, 9, -1); math.Abs(got-9) > 1e-12 {
		t.Errorf("geomean skips what did not run: got %v, want 9", got)
	}
	if got := geomean(); got != 0 {
		t.Errorf("geomean of nothing = %v", got)
	}
	if got := selfTime(10, 3, 4); got != 3 {
		t.Errorf("selfTime(10,3,4) = %v, want 3", got)
	}
	if got := selfTime(1, 3); got != 0 {
		t.Errorf("selfTime floors at 0, got %v", got)
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(ten); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1.0", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := def{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := def{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, tc := range []struct {
		name string
		d    def
		base []float64
		head []float64
		want string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"within bound", lower, steady, []float64{105, 106, 104, 105}, verdictOK},
		{"slower", lower, steady, []float64{120, 121, 119, 120}, verdictRegressed},
		{"faster", lower, steady, []float64{80, 81, 79, 80}, verdictOK},
		{"lower throughput", higher, steady, []float64{80, 81, 79, 80}, verdictRegressed},
		{"higher throughput", higher, steady, []float64{130, 131, 129, 130}, verdictOK},
		{"noisy", lower, []float64{80, 100, 120, 140}, []float64{85, 105, 125, 135}, verdictUnresolved},
		{"noisy but all better", lower, []float64{80, 100, 120, 140}, []float64{40, 50, 60, 70}, verdictOK},
		{"noisy and all worse", lower, []float64{80, 100, 120, 140}, []float64{200, 250, 300, 350}, verdictUnresolved},
		{"single runs", lower, []float64{100}, []float64{125}, verdictRegressed},
	} {
		if _, _, got := judge(tc.d, tc.base, tc.head); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsNonZeroOnRegression(t *testing.T) {
	run := func(p50 float64) runFile {
		res := newResult("serve_read")
		res.e2e("op_p50_ms", p50, 10)
		return runFile{Results: map[string]*result{"serve_read": res}}
	}
	var out bytes.Buffer
	if code := compareRuns([]runFile{run(1.0)}, []runFile{run(1.05)}, &out); code != 0 {
		t.Errorf("within the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns([]runFile{run(1.0)}, []runFile{run(1.5)}, &out); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("beyond the bound: exit %d\n%s", code, out.String())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	gen := func(seed int64) (sf, ops, batches string) {
		in, err := genCase("sf100k", smokeSizes, seed)
		if err != nil {
			t.Fatal(err)
		}
		g3, err := genCase("g3q1", smokeSizes, seed)
		if err != nil {
			t.Fatal(err)
		}
		g3.solve()
		return digest(in.edgeList), readOpsDigest(seed, g3, indexRelation(g3.relation)), batchesDigest(seed, g3.g)
	}
	a1, a2, a3 := gen(1)
	b1, b2, b3 := gen(1)
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Error("the same seed generated different bytes")
	}
	c1, c2, c3 := gen(2)
	if a1 == c1 || a2 == c2 || a3 == c3 {
		t.Error("a different seed generated the same bytes")
	}
}

// TestPins regenerates the seed-1 inputs at full size: a change to
// internal/graphgen or internal/dataset that moves them fails here first.
func TestPins(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full-size inputs")
	}
	got, err := computePins()
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(pinsJSON, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("generated inputs differ from pins.json:\n got %v\nwant %v", got, want)
	}
}

func TestIncrementalOracleMatchesHellings(t *testing.T) {
	in, err := genCase("g3q1", smokeSizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := newIncOracle(in.g, in.cnf)
	bg := newBatchGen(1, in.g)
	derived := 0
	for i := 0; i < 50; i++ {
		derived += len(o.addBatch(bg.next()))
	}
	full := baseline.Hellings(bg.seen, in.cnf)[startNT]
	if o.count() != len(full) || len(o.pairsSince(0)) != derived {
		t.Errorf("oracle holds %d pairs (%d derived by batches), Hellings %d", o.count(), derived, len(full))
	}
	must, may := o.row(full[0].I, 0, 50)
	if len(must) > len(may) {
		t.Errorf("row bounds inverted: %d must, %d may", len(must), len(may))
	}
}

func named(pairs ...[2]int) []server.NamedPair {
	out := make([]server.NamedPair, len(pairs))
	for i, p := range pairs {
		out[i] = server.NamedPair{From: nodeName(p[0]), To: nodeName(p[1])}
	}
	return out
}

// TestCheckerCanFail feeds the oracle comparison wrong answers and expects
// each to count as a failed op.
func TestCheckerCanFail(t *testing.T) {
	row := map[int]bool{1: true, 2: true, 3: true}
	rel := map[matrix.Pair]bool{{I: 7, J: 1}: true, {I: 7, J: 2}: true, {I: 7, J: 3}: true}
	good := server.QueryAnswer{Pairs: named([2]int{7, 1}, [2]int{7, 2}, [2]int{7, 3})}
	three, yes := 3, true
	res := newResult("test")
	for _, err := range []error{
		checkPairsFrom(good, 7, row, row),
		checkPage(good, rel, 3, false),
		checkCount(server.QueryAnswer{Count: &three}, 3),
		checkExists(server.QueryAnswer{Exists: &yes}, true),
		checkPush(named([2]int{7, 1}, [2]int{7, 2}), []matrix.Pair{{I: 7, J: 1}, {I: 7, J: 2}}, map[server.NamedPair]bool{}),
	} {
		res.attempt(err)
	}
	if res.Failed != 0 {
		t.Fatalf("correct answers failed: %v", res.Failures)
	}

	seen := map[server.NamedPair]bool{}
	wrong := map[string]error{
		"one pair removed":      checkPairsFrom(server.QueryAnswer{Pairs: named([2]int{7, 1}, [2]int{7, 2})}, 7, row, row),
		"one pair added":        checkPairsFrom(server.QueryAnswer{Pairs: named([2]int{7, 1}, [2]int{7, 2}, [2]int{7, 3}, [2]int{7, 4})}, 7, row, row),
		"pair from elsewhere":   checkPairsFrom(server.QueryAnswer{Pairs: named([2]int{8, 1}, [2]int{7, 2}, [2]int{7, 3})}, 7, row, row),
		"page pair not in R":    checkPage(server.QueryAnswer{Pairs: named([2]int{7, 1}, [2]int{7, 2}, [2]int{7, 9})}, rel, 3, false),
		"page pair twice":       checkPage(server.QueryAnswer{Pairs: named([2]int{7, 1}, [2]int{7, 1}, [2]int{7, 2})}, rel, 3, false),
		"page not truncated":    checkPage(good, rel, 3, true),
		"wrong count":           checkCount(server.QueryAnswer{Count: &three}, 4),
		"no count":              checkCount(server.QueryAnswer{}, 4),
		"wrong exists":          checkExists(server.QueryAnswer{Exists: &yes}, false),
		"pushed pair missing":   checkPush(named([2]int{7, 1}), []matrix.Pair{{I: 7, J: 1}, {I: 7, J: 2}}, seen),
		"pushed pair twice":     checkPush(named([2]int{7, 1}), []matrix.Pair{{I: 7, J: 1}}, seen),
		"pushed pair unknown":   checkPush(named([2]int{7, 5}), []matrix.Pair{{I: 7, J: 6}}, map[server.NamedPair]bool{}),
		"union short":           checkUnion(map[server.NamedPair]bool{}, []matrix.Pair{{I: 0, J: 1}}),
		"union with a stranger": checkUnion(map[server.NamedPair]bool{{From: "n1", To: "n0"}: true}, []matrix.Pair{{I: 0, J: 1}}),
	}
	for name, err := range wrong {
		before := res.Failed
		res.attempt(err)
		if res.Failed != before+1 {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTransportFailuresCount shows that a non-200 answer and a request that
// outlives its timeout both land in the failed count.
func TestTransportFailuresCount(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("hang") != "" {
			<-release
			return
		}
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	defer close(release)
	in, err := genCase("cycle32", smokeSizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult("test")
	cl := newClient(1)
	cl.timeout = 50 * time.Millisecond
	_, _, err = cl.query(context.Background(), &cfpqd{base: srv.URL}, countBody(in))
	res.attempt(err)
	_, _, err = cl.query(context.Background(), &cfpqd{base: srv.URL + "/?hang=1&x="}, countBody(in))
	res.attempt(err)
	if res.Attempted != 2 || res.Failed != 2 {
		t.Errorf("attempted %d, failed %d, want 2 and 2: %v", res.Attempted, res.Failed, res.Failures)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go in
// step: the driver reads the one, the program prints from the other.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) || strings.Join(bj.Command, " ") != "go run ./benchmark" {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, metrics.go says %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, metrics.go says %+v", i, m, d)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"-trace":                          "-trace=1",
		"--trace 0 --seed 3":              "-trace=0 --seed 3",
		"--workload x --trace 1":          "--workload x -trace=1",
		"-trace -out f":                   "-trace=1 -out f",
		"-compare base.json head.json":    "-compare base.json head.json",
		"--seconds 10 --trace=1 --seed 2": "--seconds 10 --trace=1 --seed 2",
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("%q → %q, want %q", in, got, want)
		}
	}
}

package main

import "strings"

// def declares one metric: its unit, whether lower or higher is better, and
// the share of the base's median by which it may worsen before -compare
// calls it a regression (0 = not compared). Every end-to-end metric has a
// bound; so do the few per-layer ones that are what a user sees on a single
// workload. A per-layer name starts with the layer it measures; which
// end-to-end metric each should move, and where, is the interaction table of
// README.md. BENCHMARK.json lists the same names; a test keeps the two in
// step.
type def struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of cfpqd would see. Every workload
// reports every one of them.
var endToEnd = []def{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "server_cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "server_alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.25},
	{name: "recovery_s", unit: "s", better: "lower", bound: 0.25},
	{name: "disk_bytes_per_edge", unit: "B", better: "lower", bound: 0.15},
}

// perLayer are the metrics of single layers. A workload that does not
// exercise a layer reports 0 for it: no work was done there.
var perLayer = expand([]def{
	{name: "grammar.parse_us", unit: "us"},
	{name: "grammar.cnf_us", unit: "us"},
	{name: "grammar.cnf_rules", unit: "count"},
	{name: "client.grammar_put_ms", unit: "ms"},
	{name: "graph.load_edgelist_ms", unit: "ms"},
	{name: "graph.clone_ms", unit: "ms"},

	{name: "matrix.addmul_round_ms", unit: "ms"},
	{name: "matrix.addmul_round_allocs", unit: "count"},
	{name: "matrix.addmul_round_alloc_kb", unit: "KB"},
	{name: "matrix.pairs_ms", unit: "ms"},
	{name: "matrix.index_mb", unit: "MB"},

	{name: "core.init_ms", unit: "ms"},
	{name: "core.close_ms.<case>", unit: "ms"},
	{name: "core.passes.<case>", unit: "count"},
	{name: "core.products", unit: "count"},
	{name: "core.us_per_pass", unit: "us"},
	{name: "core.new_pairs_per_product", unit: "ratio", better: "higher"},
	{name: "core.close_alloc_mb", unit: "MB"},
	{name: "core.close_mallocs", unit: "count"},
	{name: "core.peak_mb", unit: "MB"},
	{name: "core.update_ms", unit: "ms"},
	{name: "core.update_passes", unit: "count"},
	{name: "core.update_products", unit: "count"},
	{name: "core.update_new_pairs", unit: "count", better: "higher"},
	{name: "core.update_alloc_mb", unit: "MB"},
	{name: "core.frontier_ms", unit: "ms"},
	{name: "core.frontier_passes", unit: "count"},
	{name: "core.frontier_fallback_ratio", unit: "ratio"},

	{name: "cfpq.prepare_self_ms", unit: "ms"},
	{name: "cfpq.do_us.<class>", unit: "us"},
	{name: "cfpq.addedges_self_us", unit: "us"},
	{name: "cfpq.publish_us", unit: "us"},
	{name: "cfpq.sub_overhead_us", unit: "us"},
	{name: "cfpq.write_index_ms", unit: "ms"},
	{name: "cfpq.index_bytes_per_pair", unit: "B"},

	{name: "store.append_ms", unit: "ms"},
	{name: "store.fsyncs_per_append", unit: "ratio"},
	{name: "store.wal_bytes_per_edge", unit: "B"},
	{name: "store.save_index_ms", unit: "ms"},
	{name: "store.create_graph_ms", unit: "ms"},
	{name: "store.snapshot_ms", unit: "ms"},
	{name: "store.open_ms", unit: "ms"},
	{name: "store.replayed_records", unit: "count"},
	{name: "store.load_index_ms", unit: "ms"},

	{name: "server.service_self_us.<class>", unit: "us"},
	{name: "server.handler_self_us.<class>", unit: "us"},
	{name: "server.encode_ns_per_pair", unit: "ns"},
	{name: "server.resp_bytes_per_pair", unit: "B"},
	{name: "server.addedges_self_ms", unit: "ms"},
	{name: "server.cold_self_ms", unit: "ms"},
	{name: "server.read_slowdown_under_write", unit: "ratio"},
	{name: "server.mallocs_per_op", unit: "count"},
	{name: "server.gc_cycles", unit: "count"},
	{name: "server.gc_pause_ms", unit: "ms"},
	{name: "server.cpu_s", unit: "s"},
	{name: "server.rss_peak_mb", unit: "MB", bound: 0.25},

	{name: "wire.self_us.<class>", unit: "us"},
	{name: "replica.tail_ms", unit: "ms"},
	{name: "replica.apply_ms_per_batch", unit: "ms"},
	{name: "replica.apply_over_leader", unit: "ratio"},
	{name: "obs.scrape_ms", unit: "ms"},
	{name: "obs.count_err", unit: "ratio"},
	{name: "obs.builds_err", unit: "ratio"},

	{name: "client.p50_us.<class>", unit: "us"},
	{name: "client.p99_us.<class>", unit: "us"},
	{name: "client.p50_ms.<case>", unit: "ms"},
	{name: "client.no_push_batches", unit: "count"},
	{name: "client.read_p50_ms", unit: "ms", bound: 0.25},
	{name: "client.read_p99_ms", unit: "ms", bound: 0.25},
	{name: "client.write_p50_ms", unit: "ms", bound: 0.25},
	{name: "client.write_p95_ms", unit: "ms", bound: 0.25},
	{name: "client.push_p50_ms", unit: "ms", bound: 0.25},
	{name: "client.follower_push_p50_ms", unit: "ms", bound: 0.25},

	{name: "gen.build_s", unit: "s"},
	{name: "gen.oracle_s", unit: "s"},
	{name: "gen.cpu_share", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
})

// expand writes out one name per case or class for the templated names and
// defaults the direction to lower.
func expand(defs []def) []def {
	var out []def
	for _, d := range defs {
		if d.better == "" {
			d.better = "lower"
		}
		switch {
		case strings.HasSuffix(d.name, "<case>"):
			for _, c := range allCases {
				e := d
				e.name = strings.TrimSuffix(d.name, "<case>") + c
				out = append(out, e)
			}
		case strings.HasSuffix(d.name, "<class>"):
			for _, c := range readClasses {
				e := d
				e.name = strings.TrimSuffix(d.name, "<class>") + c
				out = append(out, e)
			}
		default:
			out = append(out, d)
		}
	}
	return out
}

var defsByName = func() map[string]def {
	m := map[string]def{}
	for _, d := range endToEnd {
		m[d.name] = d
	}
	for _, d := range perLayer {
		m[d.name] = d
	}
	return m
}()

// unitOf is the declared unit of a metric; reporting an undeclared name is
// a bug in the benchmark itself.
func unitOf(name string) string {
	d, ok := defsByName[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	return d.unit
}

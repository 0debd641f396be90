// This file is the service's one instrument set. Every Service owns its
// own obs.Registry (nothing package-global, so two Services — or two
// tests — in one process cannot collide); each service counter is
// registered on it once and incremented there. GET /metrics renders the
// registry in Prometheus text format and /debug/vars' "cfpqd" object is a
// walk over the same registry (debugCounters), so the two cannot disagree.
// Replication lag and store counters are collected at scrape time from the
// structures that own them.

package server

import (
	"strings"
	"time"

	"cfpq/internal/obs"
)

// obsMetrics bundles one Service's scrapeable instruments. The obs package
// validates every name at registration (snake_case, unit suffix), so a
// misnamed metric panics in New rather than surfacing at the first scrape.
type obsMetrics struct {
	reg *obs.Registry

	// httpRequests is the per-route latency histogram behind every HTTP
	// request: route is the mux pattern, backend the canonical backend of
	// the slot the request resolved (empty for routes that resolve none),
	// status the response code.
	httpRequests *obs.HistogramVec

	// walFsync observes append-path WAL fsync latency (fed through
	// store.SetFsyncObserver when a store is attached).
	walFsync *obs.Histogram

	// indexBuild/warmStart observe full closure builds (of grammar and expr
	// slots alike) and store-restored index loads, the two ways a cache
	// slot comes to life.
	indexBuild *obs.Histogram
	warmStart  *obs.Histogram

	// indexSwap observes, per incremental patch, how long the handle's
	// publish mutex was held to store the next version and push its delta
	// (UpdateInfo.Swap) — readers never wait for it, a subscriber joining
	// can; the closure beside it is in the update stats and the request
	// histogram.
	indexSwap *obs.Histogram

	// queries counts answered query operations (a batch, one per answered
	// spec).
	queries *obs.Counter

	indexBuilds      *obs.Counter // registry-grammar slots only
	exprIndexBuilds  *obs.Counter
	warmStarts       *obs.Counter
	updates          *obs.Counter
	edgesAdded       *obs.Counter
	budgetRejections *obs.Counter
	persistErrors    *obs.Counter
	indexSaves       *obs.CounterVec // by cause: build, checkpoint, fold, snapshot
	replBatches      *obs.Counter
	replEdges        *obs.Counter

	// Live-query counters (subscribe.go): subscriptions ever registered,
	// pair batches and pairs consumed, and deliveries carrying a resync
	// marker. Drops are collected, not counted here (see below).
	subsTotal  *obs.Counter
	subEvents  *obs.Counter
	subPairs   *obs.Counter
	subResyncs *obs.Counter
}

// swapBuckets spans a pointer swap plus a subscription publish: single
// microseconds when nobody subscribes, up to milliseconds for a large delta
// filtered for many subscribers.
var swapBuckets = []float64{.000001, .0000025, .000005, .00001, .000025, .00005, .0001, .00025, .0005, .001, .005, .025}

// fsyncBuckets spans the realistic WAL fsync range: fast NVMe commits sit
// near 100µs, a contended spinning disk near 100ms.
var fsyncBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, 1}

// newObsMetrics builds the Service's registry. The GaugeFunc/CounterFunc
// closures read s at scrape time, so they must only touch fields that are
// safe without s.mu (atomics, the store pointer).
func newObsMetrics(s *Service) *obsMetrics {
	reg := obs.NewRegistry()
	m := &obsMetrics{
		reg: reg,
		httpRequests: reg.HistogramVec("cfpqd_http_request_duration_seconds",
			"HTTP request latency by route, matrix backend and status code",
			obs.DefLatencyBuckets, "route", "backend", "status"),
		walFsync: reg.Histogram("cfpqd_wal_fsync_duration_seconds",
			"append-path WAL fsync latency", fsyncBuckets),
		indexBuild: reg.Histogram("cfpqd_index_build_duration_seconds",
			"full closure index build latency", obs.DefLatencyBuckets),
		warmStart: reg.Histogram("cfpqd_warm_start_duration_seconds",
			"latency of restoring one saved index as a live handle at startup", obs.DefLatencyBuckets),
		indexSwap: reg.Histogram("cfpqd_index_swap_duration_seconds",
			"per incremental patch, how long the new index version took to publish (readers never wait for it)", swapBuckets),

		queries:          reg.Counter("cfpqd_queries_total", "query operations answered (batch = one per answered spec)"),
		indexBuilds:      reg.Counter("cfpqd_index_builds_total", "full closure index builds of registry grammars"),
		exprIndexBuilds:  reg.Counter("cfpqd_expr_index_builds_total", "full closure index builds of RPQ expressions"),
		warmStarts:       reg.Counter("cfpqd_warm_starts_total", "indexes restored from the store without a closure"),
		updates:          reg.Counter("cfpqd_updates_total", "AddEdges calls"),
		edgesAdded:       reg.Counter("cfpqd_edges_added_total", "edges inserted across updates"),
		budgetRejections: reg.Counter("cfpqd_budget_rejections_total", "evaluations rejected by the memory budget (HTTP 413)"),
		persistErrors:    reg.Counter("cfpqd_persist_errors_total", "best-effort persistence failures: index saves and WAL folds"),
		indexSaves:       reg.CounterVec("cfpqd_index_saves_total", "index files saved, by cause: build, checkpoint, fold or snapshot", "cause"),
		replBatches:      reg.Counter("cfpqd_replicated_batches_total", "replicated WAL batches applied (follower)"),
		replEdges:        reg.Counter("cfpqd_replicated_edges_total", "edges applied from the replication stream"),
		subsTotal:        reg.Counter("cfpqd_subscriptions_total", "standing queries ever registered"),
		subEvents:        reg.Counter("cfpqd_subscription_events_total", "pair batches consumed by subscribers"),
		subPairs:         reg.Counter("cfpqd_subscription_pairs_total", "pairs consumed by subscribers"),
		subResyncs:       reg.Counter("cfpqd_subscription_resyncs_total", "consumed deliveries carrying a resync marker"),
	}
	version, revision := buildInfo()
	reg.GaugeVec("cfpqd_build_info",
		"always 1, labeled with the binary's module version and VCS revision",
		"version", "revision").With(version, revision).Set(1)
	reg.GaugeFunc("cfpqd_process_uptime_seconds",
		"seconds since the service was constructed",
		func() float64 { return time.Since(s.started).Seconds() })

	// Replication lag, from the follower's replicator status (all zero on
	// leaders and standalone nodes).
	replStatus := func(pick func(records uint64, bytes int64, age float64) float64) func() float64 {
		return func() float64 {
			rc := s.replication.Load()
			if rc == nil {
				return 0
			}
			st := rc.Status()
			return pick(st.LagRecords, st.LagBytes, st.LagAgeSeconds)
		}
	}
	reg.GaugeFunc("cfpqd_replication_lag_records",
		"records behind the leader, worst graph (0 on leaders)",
		replStatus(func(r uint64, _ int64, _ float64) float64 { return float64(r) }))
	reg.GaugeFunc("cfpqd_replication_lag_bytes",
		"WAL bytes behind the leader, worst graph",
		replStatus(func(_ uint64, b int64, _ float64) float64 { return float64(b) }))
	reg.GaugeFunc("cfpqd_replication_lag_age_seconds",
		"how long the worst graph has been behind the leader",
		replStatus(func(_ uint64, _ int64, a float64) float64 { return a }))

	reg.GaugeFunc("cfpqd_subscriptions_active_entries",
		"live standing queries", func() float64 { return float64(s.subsActive.Load()) })

	// Store size and WAL write counters (zero without an attached store;
	// the store pointer is written once before serving).
	reg.GaugeFunc("cfpqd_store_wal_bytes",
		"bytes across all live WALs", func() float64 {
			if s.store == nil {
				return 0
			}
			return float64(s.store.WALBytes())
		})
	walCounter := func(pick func(appends, written, fsyncs int64) int64) func() float64 {
		return func() float64 {
			if s.store == nil {
				return 0
			}
			return float64(pick(s.store.WALCounters()))
		}
	}
	reg.CounterFunc("cfpqd_wal_appends_total", "WAL batches journaled this session",
		walCounter(func(appends, _, _ int64) int64 { return appends }))
	reg.CounterFunc("cfpqd_wal_written_bytes_total", "WAL bytes written this session",
		walCounter(func(_, written, _ int64) int64 { return written }))
	reg.CounterFunc("cfpqd_wal_fsyncs_total", "WAL fsyncs issued this session",
		walCounter(func(_, _, fsyncs int64) int64 { return fsyncs }))
	return m
}

// MetricsRegistry exposes the service's obs registry — the Handler mounts
// it at GET /metrics; embedding processes can add their own instruments.
func (s *Service) MetricsRegistry() *obs.Registry { return s.obs.reg }

// debugAliases maps the registry names whose /debug/vars key predates the
// registry's naming rules to that historic key.
var debugAliases = map[string]string{
	"cfpqd_wal_written_bytes_total":      "wal_bytes",
	"cfpqd_subscriptions_active_entries": "subscriptions_active",
}

// debugCounters renders the "cfpqd" object of /debug/vars from the
// registry: every unlabeled counter under its name minus the cfpqd_ prefix
// and _total suffix, plus the aliased families above. A labeled family is
// read from /metrics only.
func (s *Service) debugCounters() map[string]any {
	out := map[string]any{}
	for _, sm := range s.obs.reg.Samples() {
		key, aliased := debugAliases[sm.Name]
		if !aliased {
			if sm.Kind != obs.KindCounter || sm.LabelValues != nil {
				continue
			}
			key = strings.TrimSuffix(strings.TrimPrefix(sm.Name, "cfpqd_"), "_total")
		}
		out[key] = sm.Value
	}
	return out
}

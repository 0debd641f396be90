// Command cfpqd serves context-free path queries over HTTP.
//
// It keeps a registry of named graphs and grammars, builds the closure
// index of each (graph, grammar, backend) combination on first use, caches
// it for concurrent readers, and patches cached indexes incrementally when
// edges are added (instead of recomputing the closure from scratch).
//
// # Usage
//
//	cfpqd                        # listen on :8080, in-memory only
//	cfpqd -addr 127.0.0.1:9000
//	cfpqd -graph ontology=wine.nt -grammar q1=samegen.g
//	cfpqd -data-dir /var/lib/cfpqd   # durable: WAL + snapshots + warm start
//	cfpqd -memory-budget 268435456   # answer 413 when a closure needs > 256 MiB of matrices
//	cfpqd -follow http://leader:8080 -data-dir /var/lib/cfpqd-replica
//	                                 # read replica: bootstrap + tail the leader's WAL
//
// The -graph flag preloads name=path pairs (format inferred from the
// extension: .nt → N-Triples, anything else → edge list); -grammar
// preloads grammar files. Both flags repeat.
//
// # Persistent mode
//
// With -data-dir, cfpqd opens (or creates) a durable store there and
// warm-starts from it: graphs, grammars and every previously evaluated
// closure index are restored from disk — indexes come back as live
// cache entries without re-running any closure. From then on every
// mutation is journaled write-ahead (AddEdges batches are fsynced to a
// per-graph WAL before they are applied), so a crash — kill -9 included —
// loses at most the batch being written. POST /v1/snapshot folds WALs and
// built indexes into fresh snapshots on demand; the edge batch that takes
// a graph's WAL past -compact-bytes folds that WAL before it answers; a clean
// shutdown (SIGINT/SIGTERM) snapshots everything so the next start
// replays nothing.
//
// # Replication
//
// With -follow <leader-url>, cfpqd runs as a read replica: it bootstraps
// every graph and grammar from the leader's snapshot endpoints, then tails
// the leader's WAL with retry/backoff, applying each batch through the
// same write-ahead + incremental delta-patch path a warm start uses —
// never a cold closure. Local writes answer 403; reads are served at a
// measured staleness reported by GET /v1/replication/status and /debug/vars.
// GET /readyz answers 503 while the follower bootstraps, loses its leader,
// or lags more than -max-lag records, so load balancers stop routing to
// stale replicas. POST /v1/promote detaches the follower and opens the
// write gate, turning it into a writable leader. A follower given its own
// -data-dir is durable (it re-journals the leader's frames into its own
// WAL, warm-starts after a restart, and can itself lead further
// followers); without -data-dir it replicates purely in memory.
//
// # Walkthrough
//
// Start the server and load a graph and a grammar:
//
//	cfpqd -addr :8080 -data-dir ./data &
//	curl -X PUT --data-binary @wine.nt 'localhost:8080/v1/graphs/wine?format=ntriples'
//	curl -X PUT --data-binary 'S -> subClassOf_r S subClassOf | subClassOf_r subClassOf' \
//	     localhost:8080/v1/grammars/samegen
//
// Query it (the first query builds and caches the closure index; later
// queries on the same graph/grammar/backend hit the cache):
//
//	curl -X POST -d '{"graph":"wine","grammar":"samegen","nonterminal":"S","output":"count"}' localhost:8080/v1/query
//	curl -X POST -d '{"graph":"wine","grammar":"samegen","nonterminal":"S"}' localhost:8080/v1/query
//	curl -X POST -d '{"graph":"wine","grammar":"samegen","nonterminal":"S","output":"exists","sources":["n1"],"targets":["n2"]}' \
//	     localhost:8080/v1/query
//
// Single-source questions restrict the answer to pairs leaving given
// nodes, and batches coalesce many queries against one (graph, grammar)
// pair into one cached-index build, every answer read from the same index
// version:
//
//	curl -X POST -d '{"graph":"wine","grammar":"samegen","nonterminal":"S","sources":["n1","n2"]}' localhost:8080/v1/query
//	curl -X POST -d '{"graph":"wine","grammar":"samegen","queries":[
//	      {"op":"count","nonterminal":"S"},
//	      {"op":"relation-from","nonterminal":"S","sources":["n1"]}]}' \
//	     localhost:8080/v1/query/batch
//
// Add edges — cached indexes are patched with the incremental delta
// closure, visible in /v1/stats as update products ≪ build products —
// and inspect durability and liveness:
//
//	curl -X POST -d '{"edges":[{"from":"a","label":"subClassOf","to":"b"}]}' \
//	     localhost:8080/v1/graphs/wine/edges
//	curl localhost:8080/v1/stats
//	curl -X POST localhost:8080/v1/snapshot   # answers with the store statistics
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//
// Live queries: POST /v1/subscribe holds the same JSON request open as a
// Server-Sent Events stream, pushing one "pairs" event per edge batch that
// derives new matching pairs (the pairs the update derived, never a
// re-run of the query). Events carry sequence ids for Last-Event-ID
// resume; followers serve the route too, fed by the replicated-apply
// path:
//
//	curl -N -X POST -d '{"graph":"wine","grammar":"samegen","nonterminal":"S"}' \
//	     localhost:8080/v1/subscribe
//
// # Observability
//
// GET /metrics serves Prometheus text format: request-latency histograms
// labeled by (route, backend, status), WAL fsync / index build /
// warm start latency histograms, replication lag gauges (records, bytes,
// age), live subscriptions and the resync markers streamed to them (the
// only view of them; there are no per-subscription rows), store sizes, and
// a build_info gauge. GET /debug/vars renders the same counters as JSON,
// beside the store statistics that POST /v1/snapshot also answers with.
// GET /healthz and /readyz report build version/revision and uptime.
// Every request is logged as one line to stderr, in slog's text format
// (time=.. level=INFO msg=request id=.. method=.. route=.. path=..
// status=.. duration=.. remote=..), written whole with one write, with
// an X-Request-ID that is echoed from the client when it is 1 to 64
// visible ASCII bytes and freshly minted otherwise, and set on the
// response either way.
//
//	cfpqd -pprof                     # also mount /debug/pprof/ (off by default)
//
// Query responses carry "stats" (iterations, products, duration_ns,
// peak_bytes) on every path, cached reads included; adding "trace": true
// to a POST /v1/query body returns, as explain.passes, the per-pass table
// (pass index, products, per-nonterminal nnz deltas, frontier saturation,
// wall time) of the slot build that request ran.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cfpq/internal/replica"
	"cfpq/internal/server"
	"cfpq/internal/store"
)

// namedFiles collects repeated name=path flags.
type namedFiles []string

func (f *namedFiles) String() string { return strings.Join(*f, ",") }

func (f *namedFiles) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*f = append(*f, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "durable store directory; empty serves purely in memory")
	compactBytes := flag.Int64("compact-bytes", 0, "WAL size past which the edge batch that crosses it folds the WAL into a fresh snapshot (0 = 4 MiB default, negative = never)")
	memoryBudget := flag.Int64("memory-budget", 0, "per-closure matrix memory budget in bytes; over-budget queries answer 413 (0 = unlimited)")
	follow := flag.String("follow", "", "leader URL to replicate from; this node serves reads only until promoted")
	maxLag := flag.Uint64("max-lag", 0, "follower staleness (records behind the leader) beyond which /readyz answers 503 (0 = any finite lag)")
	followerID := flag.String("follower-id", "", "identity reported to the leader's WAL retention (default hostname-pid)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	var graphs, grammars namedFiles
	flag.Var(&graphs, "graph", "preload a graph as name=path (repeatable)")
	flag.Var(&grammars, "grammar", "preload a grammar as name=path (repeatable)")
	flag.Parse()
	if *follow != "" && (len(graphs) > 0 || len(grammars) > 0) {
		// Preloads are local writes, and a follower's registry belongs to
		// its leader.
		log.Fatalf("cfpqd: -graph/-grammar preloads cannot be combined with -follow; load data on the leader")
	}

	svc := server.New()
	svc.SetMemoryBudget(*memoryBudget)
	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir, store.Options{CompactBytes: *compactBytes})
		if err != nil {
			log.Fatalf("cfpqd: opening store %s: %v", *dataDir, err)
		}
		warmCtx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = svc.AttachStore(warmCtx, st)
		cancel()
		if err != nil {
			log.Fatalf("cfpqd: warm-starting from %s: %v", *dataDir, err)
		}
		ss := st.Stats()
		log.Printf("cfpqd: warm-started from %s: %d graphs, %d grammars, %d indexes restored (replayed %d WAL records, truncated %d torn bytes)",
			*dataDir, len(ss.Graphs), ss.Grammars, len(svc.Stats()), ss.ReplayedRecords, ss.RecoveredBytes)
	}
	for _, spec := range graphs {
		name, path, _ := strings.Cut(spec, "=")
		format := "edgelist"
		if strings.HasSuffix(path, ".nt") || strings.HasSuffix(path, ".ntriples") {
			format = "ntriples"
		}
		if err := loadGraph(svc, name, format, path); err != nil {
			log.Fatalf("cfpqd: loading graph %s: %v", spec, err)
		}
	}
	for _, spec := range grammars {
		name, path, _ := strings.Cut(spec, "=")
		text, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("cfpqd: loading grammar %s: %v", spec, err)
		}
		if err := svc.RegisterGrammar(name, string(text)); err != nil {
			log.Fatalf("cfpqd: grammar %s: %v", spec, err)
		}
	}

	var rep *replica.Replicator
	if *follow != "" {
		id := *followerID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		svc.SetReadOnly(true)
		svc.SetReadinessMaxLag(*maxLag)
		rep = replica.New(&replica.Client{Base: *follow, FollowerID: id}, svc, replica.Options{})
		svc.SetReplication(rep)
		go func() {
			if err := rep.Run(context.Background()); err != nil {
				log.Printf("cfpqd: replication stopped: %v", err)
			}
		}()
		log.Printf("cfpqd: following %s as %q (read-only until promoted)", *follow, id)
	}

	log.Printf("cfpqd: listening on %s (%d graphs, %d grammars preloaded)",
		*addr, len(graphs), len(grammars))
	handlerOpts := []server.HandlerOption{server.WithRequestLog(os.Stderr)}
	if *pprofOn {
		handlerOpts = append(handlerOpts, server.WithPprof())
		log.Printf("cfpqd: pprof profiling mounted at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: server.Handler(svc, handlerOpts...),
		// Slow-client protection: the service accepts large uploads, so
		// unbounded header/body stalls must not pin goroutines forever.
		// The handler bounds each write of a response itself, the SSE
		// stream's events and heartbeats included, so a server-wide
		// WriteTimeout, which would end that stream, is not set.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then —
	// in persistent mode — fold every WAL and built index into fresh
	// snapshots so the next start replays nothing, and close the store.
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("cfpqd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("cfpqd: shutdown: %v", err)
		}
		if rep != nil {
			// Ask the stream to stop before the final snapshot. A batch
			// still in flight is journaled write-ahead, so at worst it
			// stays in the WAL for the next warm start.
			rep.Stop()
		}
		if st != nil {
			if err := svc.Snapshot(""); err != nil {
				log.Printf("cfpqd: final snapshot: %v", err)
			}
			if err := st.Close(); err != nil {
				log.Printf("cfpqd: closing store: %v", err)
			}
		}
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-idle
}

func loadGraph(svc *server.Service, name, format, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := svc.LoadGraph(name, format, f)
	if err != nil {
		return err
	}
	log.Printf("cfpqd: graph %q: %d nodes, %d edges, %d labels", name, st.Nodes, st.Edges, st.Labels)
	return nil
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"cfpq"
	"cfpq/internal/store"
)

// HandlerOption configures the HTTP handler returned by Handler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	pprof bool
	log   *requestLog
}

// WithPprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Off by default: profiling endpoints expose goroutine
// stacks and heap contents, so exposure is an explicit operator decision.
func WithPprof() HandlerOption {
	return func(hc *handlerConfig) { hc.pprof = true }
}

// WithRequestLog logs one line per request: its time, id, method, route,
// path, status, duration and remote address. To an io.Writer (cfpqd passes
// os.Stderr) each line goes whole, in one Write, in the format
// slog.NewTextHandler writes; a logger with slog's Info method (a
// *slog.Logger) is given each line's record instead; nil logs nothing.
// Anything else panics.
func WithRequestLog(dst any) HandlerOption {
	var log *requestLog
	switch d := dst.(type) {
	case nil:
	case io.Writer:
		log = &requestLog{w: d}
	case infoLogger:
		log = &requestLog{logger: d}
	default:
		panic(fmt.Sprintf("server: WithRequestLog(%T): want an io.Writer or a *slog.Logger", dst))
	}
	return func(hc *handlerConfig) { hc.log = log }
}

// Handler exposes a Service over HTTP/JSON. Routes (all responses JSON):
//
//	GET  /v1/graphs                      list graphs
//	PUT  /v1/graphs/{name}               load a graph; body is the document,
//	                                     ?format=ntriples (default) or edgelist
//	GET  /v1/graphs/{name}               one graph's info
//	POST /v1/graphs/{name}/edges         add edges: {"edges":[{"from":..,"label":..,"to":..}]}
//	GET  /v1/grammars                    list grammars
//	PUT  /v1/grammars/{name}             register a grammar; body is grammar text
//	POST /v1/query                       evaluate one declarative request through the planner:
//	                                     {"graph":..,"grammar":..,"backend":..,"nonterminal":..|"expr":..,
//	                                     "sources":[..],"targets":[..],"output":"pairs|count|exists|paths",
//	                                     "limit":..,"max_path_length":..,"trace":..}; answered from
//	                                     the cached index slot of the grammar, or of the "expr"'s
//	                                     right-linear lowering (built on first use, patched by
//	                                     writes); "explain" names the strategy (cached-read) and,
//	                                     with "trace", the passes of a slot build the request ran
//	POST /v1/subscribe                   standing query, served as Server-Sent Events:
//	                                     {"graph":..,"grammar":..,"backend":..,"nonterminal":..,
//	                                     "sources":[..],"targets":[..]}; each index update that
//	                                     derives new matching pairs pushes one "pairs" event
//	                                     (id = update seq, data = {"seq","pairs","resync"?}),
//	                                     computed from the incremental closure's delta, read from
//	                                     the handle's window of the last 64 updates. Heartbeat
//	                                     comments keep idle streams alive; each write has
//	                                     writeTimeout. Last-Event-ID resumes within the window (a
//	                                     position it has passed reads one "resync":true event); a
//	                                     terminal "resync" event means the served index was invalidated
//	                                     (graph or grammar replaced, or an over-budget update;
//	                                     never a write that merely adds nodes) — re-query and
//	                                     reconnect. Followers push replicated writes the same way.
//	POST /v1/query/batch                 evaluate many queries against one target from one cached
//	                                     index build: {"graph":..,"grammar":..,"backend":..,
//	                                     "queries":[{"op":..,"nonterminal":..,"from":..,"to":..,
//	                                     "sources":[..],"targets":[..]}]}
//	GET  /v1/stats                       per-index closure statistics and per-nonterminal
//	                                     relation sizes ("counts"); an expr slot names its
//	                                     canonical "expr" in place of a grammar
//	POST /v1/snapshot                    persistent mode: fold WAL + built indexes into
//	                                     fresh snapshots; ?graph= restricts to one graph;
//	                                     answers with the durable-store statistics
//	GET  /v1/replica/snapshot            leader: JSON manifest (grammars, graphs with
//	                                     seq+epoch, config version); ?graph= instead
//	                                     returns that graph's binary snapshot with
//	                                     X-Cfpq-Seq / X-Cfpq-Epoch headers
//	GET  /v1/replica/wal                 leader: long-poll one graph's WAL tail,
//	                                     ?graph=&from=&epoch=&follower=&wait=: a format byte
//	                                     and the WAL's own frames after from, X-Cfpq-* headers
//	                                     for leader seq, config version and bytes left; 410
//	                                     means the follower must re-bootstrap from a snapshot
//	GET  /v1/replication/status          role + stream positions: follower staleness
//	                                     (applied vs leader seq, lag bytes/age) or the
//	                                     leader's graphs and attached followers
//	POST /v1/promote                     follower: detach from the leader and open the
//	                                     write gate
//	GET  /healthz                        liveness probe: {"status":"ok"} plus build
//	                                     version/revision and process uptime
//	GET  /readyz                         readiness: 503 while a follower bootstraps, has
//	                                     lost its leader, or exceeds the -max-lag bound;
//	                                     detail carries build info and uptime
//	GET  /metrics                        Prometheus text format: request-latency
//	                                     histograms by (route, backend, status) — backend is
//	                                     the canonical one of the slot a query, batch or
//	                                     subscribe resolved — replication lag gauges,
//	                                     subscription and WAL counters, build info
//	GET  /debug/vars                     expvar dump (memstats, cmdline) + the /metrics
//	                                     counters as JSON ("cfpqd": queries, index_builds,
//	                                     warm_starts, wal_appends, wal_bytes, wal_fsyncs, ...)
//	                                     + store statistics ("cfpqd_store": replayed_records,
//	                                     ...) and replication status ("cfpqd_replication")
//	GET  /debug/pprof/                   runtime profiles (only with WithPprof / -pprof)
//
// Every response carries an X-Request-ID header — echoed from the request
// when the client sent one of 1 to 64 visible ASCII bytes, freshly minted
// otherwise — and every request is recorded in the /metrics latency
// histogram. Errors are {"error": "..."}
// with a 4xx/5xx status (statusFor): a body over maxDocumentBytes answers
// 413 on every route that reads one, and a failed store write 500. On a
// follower every local mutation route answers 403; writes go to the leader.
func Handler(s *Service, opts ...HandlerOption) http.Handler {
	var hc handlerConfig
	for _, opt := range opts {
		opt(&hc)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"graphs": s.Graphs()})
	})
	mux.HandleFunc("GET /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		ge, err := s.graphEntry(name)
		if err != nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", name))
			return
		}
		writeJSON(w, http.StatusOK, ge.cur.Load().info(name))
	})
	mux.HandleFunc("PUT /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		format := r.URL.Query().Get("format")
		st, err := s.LoadGraph(name, format, http.MaxBytesReader(w, r.Body, maxDocumentBytes))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"name": name, "nodes": st.Nodes, "edges": st.Edges, "labels": st.Labels,
		})
	})
	mux.HandleFunc("POST /v1/graphs/{name}/edges", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Edges []EdgeSpec `json:"edges"`
		}
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, statusFor(err), fmt.Errorf("decoding edges: %w", err))
			return
		}
		if len(req.Edges) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("no edges in request"))
			return
		}
		res, err := s.AddEdges(r.Context(), r.PathValue("name"), req.Edges)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("GET /v1/grammars", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"grammars": s.Grammars()})
	})
	mux.HandleFunc("PUT /v1/grammars/{name}", func(w http.ResponseWriter, r *http.Request) {
		text, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDocumentBytes))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		name := r.PathValue("name")
		if err := s.RegisterGrammar(name, string(text)); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		gi, err := s.GrammarInfoFor(name)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, gi)
	})
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		req, err := decodeQuery(w, r)
		if err != nil {
			writeError(w, statusFor(err), fmt.Errorf("decoding request: %w", err))
			return
		}
		ge, res, err := s.do(r.Context(), req)
		if ge != nil {
			labelBackend(w, Target{Backend: req.Backend})
		}
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeAnswer(w, ge, req, res)
	})
	mux.HandleFunc("POST /v1/subscribe", func(w http.ResponseWriter, r *http.Request) {
		s.serveSubscribe(w, r)
	})
	mux.HandleFunc("POST /v1/query/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Graph   string           `json:"graph"`
			Grammar string           `json:"grammar"`
			Backend string           `json:"backend,omitempty"`
			Queries []BatchQuerySpec `json:"queries"`
		}
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, statusFor(err), fmt.Errorf("decoding batch: %w", err))
			return
		}
		if req.Graph == "" || req.Grammar == "" {
			writeError(w, http.StatusBadRequest, errors.New("graph and grammar are required"))
			return
		}
		if len(req.Queries) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("no queries in batch"))
			return
		}
		t := Target{Graph: req.Graph, Grammar: req.Grammar, Backend: req.Backend}
		ge, answers, pairs, err := s.queryBatch(r.Context(), t, req.Queries)
		if ge != nil {
			labelBackend(w, t)
		}
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeBatch(w, ge, answers, pairs)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"indexes": s.Stats()})
	})
	mux.HandleFunc("POST /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !s.Persistent() {
			writeError(w, http.StatusConflict, errors.New("no store attached (start cfpqd with -data-dir)"))
			return
		}
		graph := r.URL.Query().Get("graph")
		if err := s.Snapshot(graph); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		st, _ := s.StoreStats()
		writeJSON(w, http.StatusOK, map[string]any{"snapshotted": true, "store": st})
	})
	mux.HandleFunc("GET /v1/replica/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if name := r.URL.Query().Get("graph"); name != "" {
			data, seq, epoch, err := s.ReplicaGraphSnapshot(name)
			if err != nil {
				writeError(w, replicationStatusFor(err), err)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("X-Cfpq-Seq", strconv.FormatUint(seq, 10))
			w.Header().Set("X-Cfpq-Epoch", strconv.FormatUint(epoch, 10))
			writeChunks(w, data)
			return
		}
		m, err := s.ReplicaManifest()
		if err != nil {
			writeError(w, replicationStatusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, m)
	})
	mux.HandleFunc("GET /v1/replica/wal", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		name := q.Get("graph")
		if name == "" {
			writeError(w, http.StatusBadRequest, errors.New("graph is required"))
			return
		}
		from, err := strconv.ParseUint(q.Get("from"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from param: %w", err))
			return
		}
		epoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad epoch param: %w", err))
			return
		}
		var wait time.Duration
		if wv := q.Get("wait"); wv != "" {
			if wait, err = time.ParseDuration(wv); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait param: %w", err))
				return
			}
			if wait > maxTailWait {
				wait = maxTailWait
			}
		}
		resp, err := s.ReplicaTail(r.Context(), name, q.Get("follower"), from, epoch, wait)
		if err != nil {
			writeError(w, replicationStatusFor(err), err)
			return
		}
		var page bytes.Buffer
		if err := store.WriteTailPage(&page, resp.Batches); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Cfpq-Leader-Seq", strconv.FormatUint(resp.LeaderSeq, 10))
		w.Header().Set("X-Cfpq-Config-Version", strconv.FormatUint(resp.ConfigVersion, 10))
		w.Header().Set("X-Cfpq-Remaining-Bytes", strconv.FormatInt(resp.RemainingBytes, 10))
		writeChunks(w, page.Bytes())
	})
	mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.ReplicationStatus())
	})
	mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Promote(r.Context())
		if err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "replication": st})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		version, revision := buildInfo()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"version":        version,
			"revision":       revision,
			"uptime_seconds": s.Uptime().Seconds(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, detail := s.Ready()
		code := http.StatusOK
		if !ready {
			code = http.StatusServiceUnavailable
		}
		version, revision := buildInfo()
		detail["version"] = version
		detail["revision"] = revision
		detail["uptime_seconds"] = s.Uptime().Seconds()
		writeJSON(w, code, detail)
	})
	mux.Handle("GET /metrics", s.MetricsRegistry())
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		serveDebugVars(w, s)
	})
	if hc.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return instrument(s, mux, hc.log)
}

// serveDebugVars renders the expvar universe — every published global
// (cmdline, memstats, anything the embedding process added) — plus the
// service counters under "cfpqd" (a walk over the /metrics registry, see
// debugCounters) and, in persistent mode, the store statistics under
// "cfpqd_store". The service vars are injected per
// handler rather than expvar.Publish'd because publishing is global and
// panics on re-registration, which would forbid two Services (or two
// tests) in one process.
func serveDebugVars(w http.ResponseWriter, s *Service) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{")
	first := true
	emit := func(name, value string) {
		if !first {
			fmt.Fprintf(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n%q: %s", name, value)
	}
	expvar.Do(func(kv expvar.KeyValue) {
		emit(kv.Key, kv.Value.String())
	})
	if raw, err := json.Marshal(s.debugCounters()); err == nil {
		emit("cfpqd", string(raw))
	}
	if st, ok := s.StoreStats(); ok {
		if raw, err := json.Marshal(st); err == nil {
			emit("cfpqd_store", string(raw))
		}
	}
	if rc := s.replication.Load(); rc != nil {
		if raw, err := json.Marshal(rc.Status()); err == nil {
			emit("cfpqd_replication", string(raw))
		}
	}
	fmt.Fprintf(w, "\n}\n")
}

// maxDocumentBytes bounds uploaded graph/grammar documents and edge
// batches (64 MiB).
const maxDocumentBytes = 64 << 20

// jsonContentType is the Content-Type header value of a JSON response,
// shared by every response: net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeJSON writes v as a JSON response: encoding/json, HTML escaping
// off, one trailing newline. Query answers do not come through here:
// writeAnswer writes the same bytes without reflecting over their pairs.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeChunks writes body in answerChunk pieces, each of which has its own
// writeTimeout to reach the client, until a write fails.
func writeChunks(w io.Writer, body []byte) {
	for len(body) > 0 {
		n := min(len(body), answerChunk)
		if _, err := w.Write(body[:n]); err != nil {
			return
		}
		body = body[n:]
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	// A structured request-validation error names its offending field;
	// surface it so wire clients can programmatically blame the input.
	var re *cfpq.RequestError
	if errors.As(err, &re) {
		body["field"] = re.Field
	}
	writeJSON(w, status, body)
}

// statusFor maps service and request-body errors to HTTP statuses: lookups
// of unregistered names are 404, writes rejected by a read-only follower
// 403, a body over maxDocumentBytes and memory-budget rejections (the
// request names an instance too large for the configured allowance) 413, a
// failed store write 500 (the server's fault), everything else a client
// error.
func statusFor(err error) int {
	var (
		be *cfpq.MemoryBudgetError
		me *http.MaxBytesError
	)
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrReadOnly):
		return http.StatusForbidden
	case errors.As(err, &be), errors.As(err, &me):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errStore):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// maxTailWait caps a replication long-poll so a dead follower connection
// cannot park a handler goroutine indefinitely.
const maxTailWait = 60 * time.Second

// replicationStatusFor maps replication-endpoint errors: the
// snapshot-required signal is 410 Gone, unknown graphs 404, and a node
// that cannot serve the request in its current role (no store attached,
// not a follower) 409 Conflict.
func replicationStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrSnapshotNeeded):
		return http.StatusGone
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusConflict
	}
}

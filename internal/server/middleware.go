// This file is the HTTP observability layer Handler wraps around the route
// mux: per-request latency recorded into the service's histogram labeled
// (route, backend, status), structured slog request logging, and
// X-Request-ID propagation. The backend label travels backwards — the
// middleware plants a QueryLabels carrier in the request context and the
// service fills it in when the request resolves an index slot — so one
// wrapper instruments every route without each handler knowing about
// metrics.

package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// QueryLabels carries the canonical backend of the index slot a request
// resolved back to the HTTP middleware's latency labels. Routes that
// resolve no slot leave it empty.
type QueryLabels struct {
	backend string
}

// Set records the backend label.
func (ql *QueryLabels) Set(backend string) {
	if ql == nil {
		return
	}
	ql.backend = backend
}

type queryLabelsKey struct{}

// QueryLabelsFromContext returns the middleware's label carrier, or nil
// when the call did not arrive through the instrumented handler.
func QueryLabelsFromContext(ctx context.Context) *QueryLabels {
	ql, _ := ctx.Value(queryLabelsKey{}).(*QueryLabels)
	return ql
}

// statusWriter records the response status for the latency labels and the
// request log; it fails every write once the request's context is done (a
// client that went away stops a streamed answer at its next chunk), and
// gives each write writeTimeout to reach the client unless the handler set
// its own write deadline. Flush is forwarded so the SSE subscribe route
// still streams through the wrapper, and Unwrap lets an
// http.ResponseController reach the connection.
type statusWriter struct {
	http.ResponseWriter
	status int
	ctx    context.Context
	own    bool // the handler set the write deadline, or none can be set
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if err := w.ctx.Err(); err != nil {
		return 0, err
	}
	w.extend()
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// SetWriteDeadline hands the response's write deadline to the handler.
func (w *statusWriter) SetWriteDeadline(d time.Time) error {
	w.own = true
	return http.NewResponseController(w.ResponseWriter).SetWriteDeadline(d)
}

// extend gives the response's next write writeTimeout to reach the client,
// unless the handler set the deadline itself. A writer that cannot take a
// deadline (a test recorder) goes without one, and is not asked again.
func (w *statusWriter) extend() {
	if !w.own && http.NewResponseController(w.ResponseWriter).SetWriteDeadline(time.Now().Add(writeTimeout)) != nil {
		w.own = true
	}
}

// newRequestID mints a 16-hex-char request id when the client sent none.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// writeTimeout is how long each write of a response — a chunk of a
// streamed answer, or a smaller response whole — has to reach the client,
// so that a client that stops reading cannot hold a handler. It bounds no
// handler's work before its first write. The SSE stream, meant to stay
// open, lifts it.
const writeTimeout = time.Minute

// instrument wraps the route mux with the observability layer. logger may
// be nil (no request log); the latency histogram always records.
func instrument(s *Service, mux *http.ServeMux, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = newRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ql := &QueryLabels{}
		r = r.WithContext(context.WithValue(r.Context(), queryLabelsKey{}, ql))
		sw := &statusWriter{ResponseWriter: w, ctx: r.Context()}
		mux.ServeHTTP(sw, r)
		// What the handler left buffered, or a response it never wrote,
		// goes out after it returns: give that write its time too.
		sw.extend()
		// The mux sets the pattern of the route it served, so the
		// histogram's route label has bounded cardinality (never the raw
		// path); a 404 or 405 has none.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		if sw.status == 0 {
			// Nothing was written (e.g. a hijacked or abandoned stream);
			// report what the client saw.
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.obs.httpRequests.
			With(route, ql.backend, strconv.Itoa(sw.status)).
			Observe(elapsed.Seconds())
		if logger != nil {
			logger.Info("request",
				"id", reqID,
				"method", r.Method,
				"route", route,
				"path", r.URL.Path,
				"status", sw.status,
				"duration", elapsed,
				"remote", r.RemoteAddr,
			)
		}
	})
}

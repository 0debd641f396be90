// This file is the envelope Handler wraps around the route mux: per-request
// latency recorded into the service's histogram labeled (route, backend,
// status), the request log line, and X-Request-ID propagation. It is fixed
// work on every request, a cached read's included, so it does only what
// those contracts need: the handler that resolves an index slot records
// the slot's backend on the status writer (labelBackend) rather than
// through the request's context; the log line is appended into a pooled
// buffer in the format slog's TextHandler writes and goes out in one
// Write; a minted request id is a counter; and the status writer keeps one
// http.ResponseController for all its writes.

package server

import (
	"context"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"
)

// statusWriter records the response status and the slot's backend for the
// latency labels and the request log; it fails every write once the
// request's context is done (a client that went away stops a streamed
// answer at its next chunk), and gives each write writeTimeout to reach
// the client unless the handler set its own write deadline. Flush is
// forwarded so the SSE subscribe route still streams through the wrapper,
// and Unwrap lets an http.ResponseController reach the connection.
type statusWriter struct {
	http.ResponseWriter
	rc      *http.ResponseController // of the ResponseWriter
	status  int
	backend string // canonical backend of the slot the request resolved
	ctx     context.Context
	own     bool      // the handler set the write deadline, or none can be set
	id      [1]string // the X-Request-ID header's value
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
	return w.rc.SetWriteDeadline(d)
}

// extend gives the response's next write writeTimeout to reach the client,
// unless the handler set the deadline itself. A writer that cannot take a
// deadline (a test recorder) goes without one, and is not asked again.
func (w *statusWriter) extend() {
	if !w.own && w.rc.SetWriteDeadline(time.Now().Add(writeTimeout)) != nil {
		w.own = true
	}
}

// labelBackend records the canonical backend of the slot a request
// resolved, which labels the request's latency series. Handlers call it
// once their request resolved a slot, whether or not it then failed.
func labelBackend(w http.ResponseWriter, t Target) {
	if sw, ok := w.(*statusWriter); ok {
		sw.backend = t.key().Backend
	}
}

// requestIDHeader is X-Request-ID in the canonical form http.Header keys
// take.
const requestIDHeader = "X-Request-Id"

// maxRequestID bounds the X-Request-ID a client sends that is echoed.
const maxRequestID = 64

// echoable reports whether a client's request id is echoed: 1 to
// maxRequestID visible ASCII bytes. Any other is replaced by a minted one,
// so that a client cannot put a megabyte or a control byte into the
// response and the request log.
func echoable(id string) bool {
	if id == "" || len(id) > maxRequestID {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < '!' || id[i] > '~' {
			return false
		}
	}
	return true
}

// requestIDBase and requestIDSeq mint request ids: the base is drawn once
// per process, so that ids differ across restarts, and each request takes
// the next count above it.
var (
	requestIDBase = rand.Uint64()
	requestIDSeq  atomic.Uint64
)

// newRequestID mints a 16-hex-char request id.
func newRequestID() string {
	var b [16]byte
	n := requestIDBase + requestIDSeq.Add(1)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = "0123456789abcdef"[n&15]
		n >>= 4
	}
	return string(b[:])
}

// writeTimeout is how long each write of a response — a chunk of a
// streamed answer or of a replica body, or a smaller response whole — has
// to reach the client, so that a client that stops reading cannot hold a
// handler. It bounds no handler's work before its first write. The SSE
// stream, meant to stay open, lifts it.
const writeTimeout = time.Minute

// requestLog writes the request log: one line per request, as
// slog.NewTextHandler(w, nil) writes the record of logger.Info("request",
// "id", .., "method", .., "route", .., "path", .., "status", ..,
// "duration", .., "remote", ..), each in one Write under mu, as that
// handler writes it — or, with logger set, that record logged through it.
type requestLog struct {
	mu     sync.Mutex
	w      io.Writer
	logger infoLogger
}

// infoLogger is the method of *slog.Logger a request log can be given in
// place of a writer; the in-process replay of benchmark/trace.go gives it
// one.
type infoLogger interface {
	Info(msg string, args ...any)
}

func (l *requestLog) write(t time.Time, id, method, route, path string, status int, d time.Duration, remote string) {
	if l.logger != nil {
		l.logger.Info("request", "id", id, "method", method, "route", route, "path", path,
			"status", status, "duration", d, "remote", remote)
		return
	}
	bp := byteBufs.Get().(*[]byte)
	b := appendRequestLine((*bp)[:0], t, id, method, route, path, status, d, remote)
	l.mu.Lock()
	_, _ = l.w.Write(b) // a lost log line does not fail the request, as with slog's Logger
	l.mu.Unlock()
	*bp = b[:0]
	byteBufs.Put(bp)
}

// appendRequestLine appends the request log line of one request.
func appendRequestLine(b []byte, t time.Time, id, method, route, path string, status int, d time.Duration, remote string) []byte {
	// The time in RFC 3339 with milliseconds, as slog writes it: formatted
	// with RFC3339Nano from a time a tenth of a millisecond past its
	// millisecond, so it has four digits after the point, and the fourth
	// dropped.
	b = append(b, "time="...)
	n := len(b) + len("2006-01-02T15:04:05.000")
	b = t.Truncate(time.Millisecond).Add(time.Millisecond/10).AppendFormat(b, time.RFC3339Nano)
	b = append(b[:n], b[n+1:]...)
	b = append(b, " level=INFO msg=request id="...)
	b = appendLogValue(b, id)
	b = append(b, " method="...)
	b = appendLogValue(b, method)
	b = append(b, " route="...)
	b = appendLogValue(b, route)
	b = append(b, " path="...)
	b = appendLogValue(b, path)
	b = append(b, " status="...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, " duration="...)
	b = append(b, d.String()...)
	b = append(b, " remote="...)
	b = appendLogValue(b, remote)
	return append(b, '\n')
}

// appendLogValue appends a string value as slog's TextHandler does: as it
// is, or quoted (strconv.Quote) when it is empty or holds a space, '=',
// '"', a control byte, invalid UTF-8, U+FFFD, or a space or unprintable
// rune.
func appendLogValue(b []byte, s string) []byte {
	if s == "" {
		return append(b, `""`...)
	}
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c <= ' ' || c == '=' || c == '"' {
				return strconv.AppendQuote(b, s)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError || unicode.IsSpace(r) || !unicode.IsPrint(r) {
			return strconv.AppendQuote(b, s)
		}
		i += size
	}
	return append(b, s...)
}

// instrument wraps the route mux with the envelope. log may be nil (no
// request log); the latency histogram always records.
func instrument(s *Service, mux *http.ServeMux, log *requestLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, rc: http.NewResponseController(w), ctx: r.Context()}
		if id := r.Header[requestIDHeader]; len(id) > 0 && echoable(id[0]) {
			sw.id[0] = id[0]
		} else {
			sw.id[0] = newRequestID()
		}
		w.Header()[requestIDHeader] = sw.id[:]
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
		end := time.Now()
		elapsed := end.Sub(start)
		s.obs.httpRequests.
			With(route, sw.backend, strconv.Itoa(sw.status)).
			Observe(elapsed.Seconds())
		if log != nil {
			log.write(end, sw.id[0], r.Method, route, r.URL.Path, sw.status, elapsed, r.RemoteAddr)
		}
	})
}

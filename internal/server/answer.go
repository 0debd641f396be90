// This file is the answer writer: the answers of POST /v1/query and
// /v1/query/batch and the SSE "pairs" events are appended into one pooled
// buffer straight from the pinned results' pairs and the graph's name
// table, with no []NamedPair in between and no reflection over the pairs.
// A query or batch answer walks its pinned version's rows and hands the
// buffer to the ResponseWriter every answerChunk bytes, so it builds no
// pair list and never holds the whole answer.
// The bytes are exactly those encoding/json writes for the typed values
// (writeJSON of renderAnswer's QueryAnswer and of QueryBatch's answers,
// json.Marshal of an event's {"seq","resync","pairs"} payload);
// encoding/json itself still writes what is rare or nested — a string that
// needs escaping, witness paths and a trace's passes.

package server

import (
	"encoding/json"
	"io"
	"iter"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"cfpq"
	"cfpq/internal/graph"
)

// jsonBuf appends JSON to b.
type jsonBuf struct {
	b []byte
	// html escapes <, > and & as json.Marshal does; writeJSON's encoder
	// does not. plain is the graph.Plain flag of the strings it copies as
	// they are: PlainHTML when it escapes HTML, else PlainJSON.
	html  bool
	plain uint8
	// w, when set, takes b every answerChunk bytes of pairs; err is its
	// first failed write, which stops the walk.
	w   io.Writer
	err error
	// from is the opening of the current row's pairs.
	from []byte
}

// answerChunk is how much of a streamed answer's pairs the writer holds
// before it writes them.
const answerChunk = 32 << 10

// maxPooledBuf bounds the buffer a jsonBuf keeps in the pool: an answer of
// many witness paths should not stay resident after it.
const maxPooledBuf = 256 << 10

var jsonBufs = sync.Pool{New: func() any { return new(jsonBuf) }}

func getJSONBuf(html bool) *jsonBuf {
	j := jsonBufs.Get().(*jsonBuf)
	j.b, j.html, j.plain, j.err = j.b[:0], html, graph.PlainJSON, nil
	if html {
		j.plain = graph.PlainHTML
	}
	return j
}

func (j *jsonBuf) free() {
	j.w = nil
	if cap(j.b) <= maxPooledBuf {
		jsonBufs.Put(j)
	}
}

// flush writes the buffer to w and empties it; it reports whether every
// write so far succeeded.
func (j *jsonBuf) flush() bool {
	if j.err == nil {
		_, j.err = j.w.Write(j.b)
	}
	j.b = j.b[:0]
	return j.err == nil
}

// Write appends p, so that encoding/json can encode into the buffer.
func (j *jsonBuf) Write(p []byte) (int, error) {
	j.b = append(j.b, p...)
	return len(p), nil
}

// value appends v as encoding/json encodes it.
func (j *jsonBuf) value(v any) {
	enc := json.NewEncoder(j)
	enc.SetEscapeHTML(j.html)
	if enc.Encode(v) == nil {
		j.b = j.b[:len(j.b)-1] // Encode's newline
	}
}

// str appends s as a JSON string. A string with nothing to escape — valid
// UTF-8 without control bytes, quotes, backslashes, U+2028 or U+2029, nor
// <, > and & when j escapes HTML (graph.Plain) — is copied as it is; any
// other is encoding/json's to write.
func (j *jsonBuf) str(s string) {
	if graph.Plain(s)&j.plain == 0 {
		j.value(s)
		return
	}
	j.b = append(j.b, '"')
	j.b = append(j.b, s...)
	j.b = append(j.b, '"')
}

// name appends node id's name as str(graph.NameIn(names.ByID, id)) does,
// without scanning it: the table recorded its Plain flags.
func (j *jsonBuf) name(names graph.View, id int) {
	if id < len(names.ByID) && names.Plain[id]&j.plain != 0 && names.ByID[id] != "" {
		j.b = append(j.b, '"')
		j.b = append(j.b, names.ByID[id]...)
		j.b = append(j.b, '"')
		return
	}
	j.str(graph.NameIn(names.ByID, id))
}

func (j *jsonBuf) int(n int64) { j.b = strconv.AppendInt(j.b, n, 10) }

// pairs appends pairs as a JSON array of NamedPair, naming nodes through
// names. With a writer set, it writes every answerChunk bytes, and a failed
// write ends the array.
func (j *jsonBuf) pairs(names graph.View, pairs iter.Seq[cfpq.Pair]) {
	j.b = append(j.b, '[')
	first, row := true, -1
	for p := range pairs {
		if p.I != row {
			// A row's later pairs repeat its ,{"from":..,"to": bytes.
			if !first {
				j.b = append(j.b, ',')
			}
			first = false
			start := len(j.b)
			j.b = append(j.b, `{"from":`...)
			j.name(names, p.I)
			j.b = append(j.b, `,"to":`...)
			j.from, row = append(append(j.from[:0], ','), j.b[start:]...), p.I
		} else {
			j.b = append(j.b, j.from...)
		}
		// name's plain case, inlined: the call cost about 15 % of a
		// whole-relation answer (BenchmarkReadClasses/pairs_all).
		if id := p.J; id < len(names.ByID) && names.Plain[id]&j.plain != 0 && names.ByID[id] != "" {
			j.b = append(append(append(j.b, '"'), names.ByID[id]...), '"', '}')
		} else {
			j.name(names, id)
			j.b = append(j.b, '}')
		}
		if j.w != nil && len(j.b) >= answerChunk && !j.flush() {
			break
		}
	}
	j.b = append(j.b, ']')
}

// answer appends the QueryAnswer renderAnswer makes of res for output out,
// as writeJSON encodes it (its newline included); names is the graph's name
// table, pinned after res was computed.
func (j *jsonBuf) answer(names graph.View, out string, res *cfpq.Result) {
	j.b = append(j.b, `{"output":`...)
	j.str(out)
	switch cfpq.Output(out) {
	case cfpq.OutputExists:
		j.b = append(j.b, `,"exists":`...)
		j.b = strconv.AppendBool(j.b, res.Exists)
	case cfpq.OutputCount:
		j.b = append(j.b, `,"count":`...)
		j.int(int64(res.Count))
	case cfpq.OutputPaths:
		j.b = append(j.b, `,"count":`...)
		j.int(int64(res.Count))
		if paths := res.AllPaths(); len(paths) > 0 {
			j.b = append(j.b, `,"paths":`...)
			j.value(namedPaths(names.ByID, paths))
		}
		j.truncated(res.Truncated)
	default: // pairs
		j.b = append(j.b, `,"count":`...)
		j.int(int64(res.Count))
		if res.Count > 0 {
			j.b = append(j.b, `,"pairs":`...)
			j.pairs(names, res.Pairs())
		}
		j.truncated(res.Truncated)
	}
	e := res.Explain
	j.b = append(j.b, `,"explain":{"strategy":`...)
	j.str(string(e.Strategy))
	j.b = append(j.b, `,"reason":`...)
	j.str(e.Reason)
	if e.Frontier != 0 {
		j.b = append(j.b, `,"frontier":`...)
		j.int(int64(e.Frontier))
	}
	if e.Saturated {
		j.b = append(j.b, `,"saturated":true`...)
	}
	if len(e.Passes) > 0 {
		j.b = append(j.b, `,"passes":`...)
		j.value(e.Passes)
	}
	st := res.Stats
	j.b = append(j.b, `},"stats":{"iterations":`...)
	j.int(int64(st.Iterations))
	j.b = append(j.b, `,"products":`...)
	j.int(int64(st.Products))
	if st.Duration != 0 {
		j.b = append(j.b, `,"duration_ns":`...)
		j.int(int64(st.Duration))
	}
	if st.PeakBytes != 0 {
		j.b = append(j.b, `,"peak_bytes":`...)
		j.int(st.PeakBytes)
	}
	j.b = append(j.b, "}}\n"...)
}

func (j *jsonBuf) truncated(t bool) {
	if t {
		j.b = append(j.b, `,"truncated":true`...)
	}
}

// event appends the SSE "pairs" event of b: its id, and as its data what
// json.Marshal writes of {"seq","resync" (omitted when false),"pairs"}.
func (j *jsonBuf) event(names graph.View, b cfpq.PairBatch) {
	j.b = append(j.b, "id: "...)
	j.b = strconv.AppendUint(j.b, b.Seq, 10)
	j.b = append(j.b, "\nevent: pairs\ndata: {\"seq\":"...)
	j.b = strconv.AppendUint(j.b, b.Seq, 10)
	if b.Resync {
		j.b = append(j.b, `,"resync":true`...)
	}
	j.b = append(j.b, `,"pairs":`...)
	j.pairs(names, slices.Values(b.Pairs))
	j.b = append(j.b, "}\n\n"...)
}

// batch appends what writeJSON writes of {"results": answers} once
// QueryBatch has named the pairs of pairs[i] into answers[i].
func (j *jsonBuf) batch(names graph.View, answers []BatchAnswer, pairs []*cfpq.Result) {
	j.b = append(j.b, `{"results":[`...)
	for i, a := range answers {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.b = append(j.b, `{"op":`...)
		j.str(a.Op)
		j.b = append(j.b, `,"nonterminal":`...)
		j.str(a.Nonterminal)
		if a.Has != nil {
			j.b = append(j.b, `,"has":`...)
			j.b = strconv.AppendBool(j.b, *a.Has)
		}
		if a.Count != nil {
			j.b = append(j.b, `,"count":`...)
			j.int(int64(*a.Count))
		}
		if res := pairs[i]; res != nil && res.Count > 0 {
			j.b = append(j.b, `,"pairs":`...)
			j.pairs(names, res.Pairs())
		}
		if a.Error != "" {
			j.b = append(j.b, `,"error":`...)
			j.str(a.Error)
		}
		j.b = append(j.b, '}')
	}
	j.b = append(j.b, "]}\n"...)
}

// writeBatch is writeJSON of {"results": answers} with status 200, byte
// for byte, the pairs named as QueryBatch names them.
func writeBatch(w http.ResponseWriter, ge *graphEntry, answers []BatchAnswer, pairs []*cfpq.Result) {
	j := startAnswer(w)
	defer j.free()
	j.batch(ge.names.View(), answers, pairs)
	j.flush()
}

// writeAnswer is writeJSON of renderAnswer(ge, req, res) with status 200,
// byte for byte, written from res.
func writeAnswer(w http.ResponseWriter, ge *graphEntry, req QueryRequest, res *cfpq.Result) {
	j := startAnswer(w)
	defer j.free()
	j.answer(ge.names.View(), answerOutput(req), res)
	j.flush()
}

// startAnswer writes a 200 JSON response's header and returns a buffer
// that writes its body to w.
func startAnswer(w http.ResponseWriter) *jsonBuf {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	j := getJSONBuf(false)
	j.w = w
	return j
}

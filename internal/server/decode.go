// This file reads request bodies. decodeQuery decodes a POST /v1/query
// body of the plain shape — what clients send — in one pass over the
// body's first read, without reflection (decodePlain), and hands any other
// to json.Decoder; every other route's body goes to json.Decoder whole. It
// is the split the answer writer makes for names that need escaping.

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// byteBufs pools the buffers of query bodies and of request log lines.
var byteBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeBody decodes the first JSON value of r's body into v: what follows
// the value is ignored, and a body past maxDocumentBytes before the value
// ends fails with *http.MaxBytesError.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDocumentBytes)).Decode(v)
}

// decodeQuery decodes a query body as decodeBody does. One read holds a
// query body whole, as a rule: a plain one is decoded in one pass over
// that read, into a request on the caller's stack; any other goes to
// json.Decoder, over that read and the rest of the body.
func decodeQuery(w http.ResponseWriter, r *http.Request) (QueryRequest, error) {
	body := http.MaxBytesReader(w, r.Body, maxDocumentBytes)
	bp := byteBufs.Get().(*[]byte)
	b := slices.Grow((*bp)[:0], 512)
	n, err := body.Read(b[:cap(b)])
	b = b[:n]
	var q QueryRequest
	if decodePlain(b, &q) {
		err = nil // the read's io.EOF, or an error past the value's end
	} else {
		// The decoder's own value, so that q stays on the stack; and
		// MaxBytesReader repeats a failed read's error to it.
		v := new(QueryRequest)
		err = json.NewDecoder(io.MultiReader(bytes.NewReader(b), body)).Decode(v)
		q = *v
	}
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		byteBufs.Put(bp)
	}
	return q, err
}

// decodePlain decodes the JSON value at the start of b into q when b
// holds it whole and it is of the plain shape: an object whose keys are
// QueryRequest's JSON names as they are, each once or more, and whose
// values are strings without escapes (valid UTF-8, no control bytes),
// decimal integers that fit an int, booleans, arrays of such strings,
// and null, each for a field that takes it. It reports whether it did; q
// is then what json.Unmarshal makes of the value, and is untouched
// otherwise. The strings share one copy of b.
func decodePlain(b []byte, q *QueryRequest) bool {
	d := plainDecoder{s: string(b)}
	out := *q
	if d.next() != '{' {
		return false
	}
	if d.literal("}") {
		*q = out
		return true
	}
	for {
		key, ok := d.str()
		if !ok || d.next() != ':' {
			return false
		}
		switch key {
		case "graph":
			ok = d.strField(&out.Graph)
		case "grammar":
			ok = d.strField(&out.Grammar)
		case "backend":
			ok = d.strField(&out.Backend)
		case "nonterminal":
			ok = d.strField(&out.Nonterminal)
		case "expr":
			ok = d.strField(&out.Expr)
		case "output":
			ok = d.strField(&out.Output)
		case "sources":
			ok = d.listField(&out.Sources)
		case "targets":
			ok = d.listField(&out.Targets)
		case "limit":
			ok = d.intField(&out.Limit)
		case "max_path_length":
			ok = d.intField(&out.MaxPathLength)
		case "trace":
			ok = d.boolField(&out.Trace)
		default:
			return false
		}
		if !ok {
			return false
		}
		switch d.next() {
		case ',':
		case '}':
			*q = out
			return true
		default:
			return false
		}
	}
}

// plainDecoder reads a plain value from s at i.
type plainDecoder struct {
	s string
	i int
}

// skip moves past JSON whitespace.
func (d *plainDecoder) skip() {
	for d.i < len(d.s) && (d.s[d.i] == ' ' || d.s[d.i] == '\t' || d.s[d.i] == '\n' || d.s[d.i] == '\r') {
		d.i++
	}
}

// next returns the byte after the whitespace at i, and moves past it; 0 at
// the end.
func (d *plainDecoder) next() byte {
	if d.skip(); d.i == len(d.s) {
		return 0
	}
	d.i++
	return d.s[d.i-1]
}

// literal moves past lit, after whitespace, if it comes next.
func (d *plainDecoder) literal(lit string) bool {
	d.skip()
	if len(d.s)-d.i < len(lit) || d.s[d.i:d.i+len(lit)] != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// str reads a string without escapes: valid UTF-8 and no control byte.
func (d *plainDecoder) str() (string, bool) {
	if d.next() != '"' {
		return "", false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; {
		case c == '"':
			s := d.s[start:d.i]
			d.i++
			return s, ascii || utf8.ValidString(s)
		case c < 0x20 || c == '\\':
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", false
}

// strField reads a string into *dst; null leaves it, as Unmarshal does.
func (d *plainDecoder) strField(dst *string) bool {
	if d.literal("null") {
		return true
	}
	s, ok := d.str()
	*dst = s
	return ok
}

// listField reads an array of strings into *dst, a fresh slice ([] an
// empty one); null sets it nil, as Unmarshal does.
func (d *plainDecoder) listField(dst *[]string) bool {
	if d.literal("null") {
		*dst = nil
		return true
	}
	if d.next() != '[' {
		return false
	}
	list := []string{}
	if d.literal("]") {
		*dst = list
		return true
	}
	for {
		s, ok := d.str()
		if !ok {
			return false
		}
		list = append(list, s)
		switch d.next() {
		case ',':
		case ']':
			*dst = list
			return true
		default:
			return false
		}
	}
}

// intField reads a decimal integer, without a fraction or an exponent,
// into *dst; null leaves it.
func (d *plainDecoder) intField(dst *int) bool {
	if d.literal("null") {
		return true
	}
	d.skip()
	start := d.i
	if d.i < len(d.s) && d.s[d.i] == '-' {
		d.i++
	}
	digits := d.i
	for d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9' {
		d.i++
	}
	if d.i > digits+1 && d.s[digits] == '0' {
		return false // JSON has no leading zeros
	}
	n, err := strconv.Atoi(d.s[start:d.i])
	*dst = n
	return err == nil
}

// boolField reads true or false into *dst; null leaves it.
func (d *plainDecoder) boolField(dst *bool) bool {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.literal("null")
	}
	return true
}

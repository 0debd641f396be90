// This file reads request bodies. decodeBody decodes the first JSON value
// of a body as json.Decoder.Decode does, through a pooled buffer; a
// QueryRequest of the plain shape — what clients send to POST /v1/query —
// is decoded in one pass over the body's bytes without reflection
// (decodePlain), any other value by json.Unmarshal once readValue found
// its end. It is the split the answer writer makes for names that need
// escaping.

package server

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// byteBufs pools the buffers of request bodies and of request log lines.
var byteBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeBody decodes the first JSON value of r's body into v as
// json.Decoder.Decode does: the body is read only up to the value's end,
// what follows it is ignored, and a body past maxDocumentBytes before that
// fails with *http.MaxBytesError. The bytes go through a pooled buffer
// (decodePlain and Unmarshal copy what they keep), so a request allocates
// no decoder. One read holds a query body whole, as a rule: a plain one is
// decoded in one pass over that read, and readValue looks for the end of
// any other.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	bp := byteBufs.Get().(*[]byte)
	var body io.Reader = http.MaxBytesReader(w, r.Body, maxDocumentBytes)
	b, err := (*bp)[:0], error(nil)
	q, query := v.(*QueryRequest)
	if query {
		var n int
		b = slices.Grow(b, 512)
		n, err = body.Read(b[:cap(b)])
		b = b[:n]
	}
	if query && decodePlain(b, q) {
		err = nil // the read's io.EOF, or an error past the value's end
	} else {
		if err != nil {
			body = errReader{err} // what the first read ended with
		}
		if b, err = readValue(body, b); err == nil {
			err = json.Unmarshal(b, v)
		}
	}
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		byteBufs.Put(bp)
	}
	return err
}

// errReader is a reader that fails with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readValue appends r's bytes to b, which may hold some already, until
// they hold the first JSON value whole, or r ends, and returns them up to
// that value's end. It finds only the end: the decoder judges the value.
func readValue(r io.Reader, b []byte) ([]byte, error) {
	var (
		depth    int  // open objects and arrays
		str, esc bool // in a string; after a backslash in it
		end      int  // just past the value, once known
		err      error
	)
	for off := 0; ; {
		for ; end == 0 && off < len(b); off++ {
			switch c := b[off]; {
			case str:
				str, esc = esc || c != '"', !esc && c == '\\'
				if !str && depth == 0 {
					end = off + 1
				}
			case c == '"':
				str = true
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				if depth--; depth <= 0 {
					end = off + 1
				}
			case depth > 0 || c == ' ' || c == '\t' || c == '\n' || c == '\r':
			case c == 'n':
				// null decodes to the zero value, whatever follows it;
				// every other top-level scalar is refused at its first byte.
				end = off + len("null")
			default:
				end = off + 1
			}
		}
		switch {
		case end > 0 && end <= len(b):
			return b[:end], nil
		case err == io.EOF:
			return b, nil
		case err != nil:
			return b, err
		}
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		var n int
		n, err = r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
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

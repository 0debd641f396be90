package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// decodeBoth decodes body into a fresh QueryRequest with json.Decoder and
// with decodeBody, whose reads come one byte at a time when oneByte is
// set, and fails unless both accept it with the same value or both refuse
// it with the same status.
func decodeBoth(t *testing.T, body []byte, oneByte bool) {
	t.Helper()
	var want QueryRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	var src io.Reader = bytes.NewReader(body)
	if oneByte {
		src = iotest.OneByteReader(src)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/query", src)
	var got QueryRequest
	err := decodeBody(httptest.NewRecorder(), r, &got)
	if (err == nil) != (wantErr == nil) || err != nil && statusFor(err) != statusFor(wantErr) {
		t.Fatalf("%q: decodeBody says %v, json.Decoder %v", body, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decodeBody read %+v, json.Decoder %+v", body, got, want)
	}
}

var decodeSeeds = []string{
	`{"graph":"g","grammar":"reach","nonterminal":"S","sources":["a","b"],"limit":3}`,
	`  {"graph":"g"}` + "\n",
	`{"graph":"g"} trailing bytes`,
	`{"graph":"g"}{"graph":"h"}`,
	`{"graph":"a\"}b\\","expr":"[x]{"}`,
	`{"graph":"g","sources":[]}]`,
	`null`, `null{"graph":"g"}`, `nullx`, `nul`, `n`,
	`true`, `12`, `-1e3x`, `"str"`, `["graph"]`, `[]`, `{}`,
	``, ` `, `{`, `{"graph":`, `}`, `]`, `garbage`, "\xef\xbb\xbf{}",
	`{"graph":"g","limit":"3"}`, `{"graph":"é\ud800"}`,
}

// TestDecodeBodyMatchesDecoder holds decodeBody to json.Decoder.Decode on
// bodies of every shape — trailing bytes, top-level scalars, truncated and
// malformed values — read whole and one byte at a time; and a body past
// maxDocumentBytes answers 413 before its value ends, as before, but not
// after it.
func TestDecodeBodyMatchesDecoder(t *testing.T) {
	for _, body := range decodeSeeds {
		decodeBoth(t, []byte(body), false)
		decodeBoth(t, []byte(body), true)
	}

	big := io.MultiReader(strings.NewReader(`{"graph":"`), io.LimitReader(filler('x'), maxDocumentBytes), strings.NewReader(`"}`))
	var req QueryRequest
	if err := decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", big), &req); statusFor(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("a value past the limit: %v, want 413", err)
	}
	tail := io.MultiReader(strings.NewReader(`{"graph":"g"}`), io.LimitReader(filler(' '), maxDocumentBytes))
	if err := decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", tail), &req); err != nil || req.Graph != "g" {
		t.Errorf("a value before the limit, padding past it: %v, graph %q", err, req.Graph)
	}
}

// filler reads as an endless run of one byte.
type filler byte

func (f filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// FuzzDecodeBody is TestDecodeBodyMatchesDecoder's differential check on
// arbitrary bodies.
func FuzzDecodeBody(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add([]byte(body), false)
	}
	f.Fuzz(func(t *testing.T, body []byte, oneByte bool) {
		decodeBoth(t, body, oneByte)
	})
}

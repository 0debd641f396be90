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
// with decodeQuery, whose reads end in io.EOF with the last bytes, as an
// HTTP request body's do, and come one byte at a time when oneByte is set;
// it fails unless both accept it with the same value or both refuse it
// with the same status.
func decodeBoth(t *testing.T, body []byte, oneByte bool) {
	t.Helper()
	var want QueryRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	src := iotest.DataErrReader(bytes.NewReader(body))
	if oneByte {
		src = iotest.OneByteReader(src)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/query", src)
	got, err := decodeQuery(httptest.NewRecorder(), r)
	if (err == nil) != (wantErr == nil) || err != nil && statusFor(err) != statusFor(wantErr) {
		t.Fatalf("%q: decodeQuery says %v, json.Decoder %v", body, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decodeQuery read %+v, json.Decoder %+v", body, got, want)
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

// TestDecodeBodyMatchesDecoder holds decodeQuery to json.Decoder.Decode on
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
	if _, err := decodeQuery(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", big)); statusFor(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("a value past the limit: %v, want 413", err)
	}
	tail := io.MultiReader(strings.NewReader(`{"graph":"g"}`), io.LimitReader(filler(' '), maxDocumentBytes))
	if req, err := decodeQuery(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", tail)); err != nil || req.Graph != "g" {
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

// plainSeeds are bodies of the plain shape decodePlain takes: what
// json.Marshal writes of a QueryRequest, and every way the shape allows
// writing its fields.
var plainSeeds = []string{
	`{"graph":"g3","grammar":"query1","nonterminal":"S","sources":["n1"],"targets":["n2"],"output":"exists"}`,
	`{"graph":"g3","grammar":"query1","nonterminal":"S","sources":null,"targets":null,"output":"pairs","limit":1000}`,
	`{"graph":"g3","expr":"subClassOf+","sources":["n1","n2"],"targets":null,"output":"pairs"}`,
	" \t\r\n{ \"graph\" : \"g\" , \"sources\" : [ ] , \"trace\" : true , \"limit\" : -0 }\n trailing",
	`{"graph":"é日本 ","limit":123456789012345678,"max_path_length":0,"trace":false,"backend":"sparse-parallel"}`,
	`{"graph":"a","graph":"b","graph":null,"sources":["x"],"sources":null,"targets":[],"targets":["y","z"],"trace":null,"limit":null}`,
	`{}`,
}

// notPlainSeeds are bodies decodePlain leaves to json.Unmarshal.
var notPlainSeeds = []string{
	`{"graph":"a\"b"}`, `{"Graph":"g"}`, `{"graphs":"g"}`, `{"limit":1.5}`, `{"limit":1e3}`,
	`{"limit":9223372036854775808}`, `{"limit":-}`, `{"limit":+1}`, `{"limit":"3"}`, `{"limit":01}`, `{"graph":3}`, `{"trace":"true"}`,
	`{"sources":[null]}`, `{"sources":"a"}`, `{"sources":[1]}`, `{"graph":"bad` + "\xff" + `"}`,
	`{"graph":"tab` + "\t" + `"}`, `{"graph":"g",}`, `{"graph":"g" "x"}`, `{"graph":{}}`, `null`, `[]`,
}

// TestDecodePlainTakesPlainBodies: decodePlain decodes the plain shape as
// json.Decoder does and declines every other body, so that the bodies
// clients send skip reflection and no other body is decoded differently.
func TestDecodePlainTakesPlainBodies(t *testing.T) {
	for _, seeds := range []struct {
		bodies []string
		plain  bool
	}{{plainSeeds, true}, {notPlainSeeds, false}} {
		for _, body := range seeds.bodies {
			var want, got QueryRequest
			wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
			if plain := decodePlain([]byte(body), &got); plain != seeds.plain {
				t.Errorf("%s: decodePlain says plain %v (json.Decoder: %v)", body, plain, wantErr)
			} else if plain && (wantErr != nil || !reflect.DeepEqual(got, want)) {
				t.Errorf("%s: decodePlain read %+v, json.Decoder %+v (%v)", body, got, want, wantErr)
			}
			decodeBoth(t, []byte(body), false)
		}
	}
}

// FuzzQueryRequestDecode: on arbitrary bytes, decodePlain either declines
// them or decodes the QueryRequest json.Decoder decodes of them; and
// decodeQuery, which tries it first, accepts and refuses what json.Decoder
// accepts and refuses, with the same request.
func FuzzQueryRequestDecode(f *testing.F) {
	for _, seeds := range [][]string{decodeSeeds, plainSeeds, notPlainSeeds} {
		for _, body := range seeds {
			f.Add([]byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, plain QueryRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if decodePlain(body, &plain) && (wantErr != nil || !reflect.DeepEqual(plain, want)) {
			t.Fatalf("%q: decodePlain read %+v, json.Decoder %+v (%v)", body, plain, want, wantErr)
		}
		got, err := decodeQuery(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", iotest.DataErrReader(bytes.NewReader(body))))
		if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeQuery read %+v (%v), json.Decoder %+v (%v)", body, got, err, want, wantErr)
		}
	})
}

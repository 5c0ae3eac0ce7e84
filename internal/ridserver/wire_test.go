package ridserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"rimarket/internal/experiments"
)

// FuzzRecommendJSON holds the append encoders to encoding/json: for any
// field values, appendRecommendation writes json.Marshal(rec) + "\n"
// and appendErrorResponse json.Marshal(ErrorResponse{msg}) + "\n", or
// both sides fail (a NaN or infinite cost).
func FuzzRecommendJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		user, policy, action   string
		inst, hour, start, exp int
		sold, next, reserved   int
		keep, cost             float64
		msg                    string
	}{
		{"user-g1-000", "A_{3T/4}", "hold", 0, 0, 0, 1460, -1, 1095, 14, 7006.975999999904, 6576.89999999987, "experiments: unknown user: \"nobody\""},
		{"<script>&amp;", "A\u2028B\u2029C", "sell", -1, math.MaxInt, math.MinInt, 1, 2, -1, 0, negZero, 5e-324, "\x00\x01\b\f\n\r\t\x1f\x7f"},
		{"\xff\xfe", "bad \xc3 utf8 \xed\xa0\x80", "sold", 3, 4, 5, 6, 7, 8, 9, 1e-7, 1e21, "quote \" backslash \\ slash /"},
		{"\u00e9\u4e2d\U0001F600", "", "", 0, 0, 0, 0, 0, 0, 0, 9.999999999999999e20, 1e-6, ""},
		{"u", "p", "keep", 1, 1, 1, 1, 1, 1, 1, -1e-7, -1.7976931348623157e308, "e-07"},
		{"u", "p", "keep", 1, 1, 1, 1, 1, 1, 1, math.NaN(), 1, "nan"},
		{"u", "p", "keep", 1, 1, 1, 1, 1, 1, 1, 1, math.Inf(-1), "-inf"},
		{"u", "p", "keep", 1, 1, 1, 1, 1, 1, 1, math.Inf(1), 0, "+inf"},
	} {
		f.Add(tc.user, tc.policy, tc.action, tc.inst, tc.hour, tc.start, tc.exp, tc.sold, tc.next, tc.reserved, tc.keep, tc.cost, tc.msg)
	}
	f.Fuzz(func(t *testing.T, user, policy, action string, inst, hour, start, exp, sold, next, reserved int, keep, cost float64, msg string) {
		rec := experiments.Recommendation{
			User: user, Policy: policy, Instance: inst, Hour: hour, Action: action,
			Start: start, ExpiresAt: exp, SoldAt: sold, NextCheckpoint: next,
			Reserved: reserved, KeepCost: keep, PolicyCost: cost,
		}
		want, err := json.Marshal(rec)
		got, ok := appendRecommendation(nil, rec)
		switch {
		case err != nil && ok:
			t.Fatalf("%+v: appended %s, json.Marshal failed: %v", rec, got, err)
		case err == nil && !ok:
			t.Fatalf("%+v: append failed, json.Marshal wrote %s", rec, want)
		case err == nil && !bytes.Equal(got, append(want, '\n')):
			t.Fatalf("%+v:\n got %q\nwant %q", rec, got, append(want, '\n'))
		}

		want, err = json.Marshal(ErrorResponse{Error: msg})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendErrorResponse(nil, msg); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("error %q:\n got %q\nwant %q", msg, got, append(want, '\n'))
		}
	})
}

// fuzzBodyLimit is FuzzQueryDecode's MaxBodyBytes: small enough that
// the fuzzer reaches oversized bodies, large enough for a canonical
// query on the test snapshot.
const fuzzBodyLimit = 128

// FuzzQueryDecode holds the request fast path to encoding/json. When
// parseQuery accepts a body, json.Decoder with DisallowUnknownFields
// decodes the same Query from it. And whatever the body, the handler
// answers with the status and bytes of refRecommend, which reads the
// request with json.Decoder through MaxBytesReader and answers with
// json.Marshal; that covers oversized bodies whose first value is
// complete (decoded) or not (413).
func FuzzQueryDecode(f *testing.F) {
	set := testSet(f)
	user, pols := set.UserName(0), set.Policies()
	canon := `{"user":"` + user + `","policy":"` + pols[1] + `","instance":1,"hour":7}`
	for _, body := range []string{
		canon,
		canon + strings.Repeat(" ", fuzzBodyLimit),
		canon + "garbage" + strings.Repeat("x", fuzzBodyLimit),
		` { "hour" : 3 , "policy":"` + pols[0] + `",` + "\n\t\r" + `"user":"` + user + `" } `,
		`{"user":"` + user + `","user":"nobody","policy":"` + pols[0] + `"}`,
		`{"user":"` + user + `","policy":"` + pols[0] + `","hour":-0}`,
		`{"user":"` + user + `","policy":"` + pols[0] + `","hour":01}`,
		`{"user":"` + user + `","policy":"` + pols[0] + `","hour":1.0}`,
		`{"user":"` + user + `","policy":"` + pols[0] + `","hour":1e2}`,
		`{"user":"` + user + `","policy":"` + pols[0] + `","instance":9223372036854775807}`,
		`{"user":"` + user + `","policy":"` + pols[0] + `","instance":-9223372036854775808}`,
		`{"user":"` + user + `","policy":"` + pols[0] + `","instance":9223372036854775808}`,
		`{"User":"` + user + `","POLICY":"` + pols[0] + `"}`,
		`{"user":"` + user + `\u0041","policy":"` + pols[0] + `"}`,
		"{\"user\":\"\xff\",\"policy\":\"" + pols[0] + `"}`,
		"{\"user\":\"\u00e9\u4e2d\u2028\",\"policy\":\"" + pols[0] + `"}`,
		`{"user":null,"policy":"` + pols[0] + `"}`,
		`{"user":"` + user + `","policy":"` + pols[0] + `",}`,
		`{"user":"` + user + `","policy":"` + pols[0] + `","extra":1}`,
		`{"user":"` + user + strings.Repeat("x", fuzzBodyLimit) + `"}`,
		`{}`,
		`{`,
		`[]`,
		`7`,
		``,
		`{"hour":-1}`,
	} {
		f.Add([]byte(body))
	}

	s, err := New(context.Background(), Config{Load: staticLoader(set), MaxBodyBytes: fuzzBodyLimit})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if q, ok := parseQuery(body); ok {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			var want experiments.Query
			if err := dec.Decode(&want); err != nil {
				t.Fatalf("%q: fast path read %+v, json.Decoder refuses: %v", body, q, err)
			}
			if q != want {
				t.Fatalf("%q: fast path read %+v, json.Decoder %+v", body, q, want)
			}
		}

		req := httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		status, want := refRecommend(t, set, body)
		if rec.Code != status || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%q: handler %d %q, encoding/json %d %q", body, rec.Code, rec.Body, status, want)
		}
	})
}

// refRecommend answers a /v1/recommend body with encoding/json alone:
// json.Decoder reads the first value through MaxBytesReader at
// fuzzBodyLimit, and every answer is json.Marshal + "\n".
func refRecommend(t *testing.T, set *experiments.DecisionSet, body []byte) (int, []byte) {
	t.Helper()
	answer := func(status int, v any) (int, []byte) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return status, append(b, '\n')
	}
	r := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), fuzzBodyLimit)
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var q experiments.Query
	if err := dec.Decode(&q); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return answer(http.StatusRequestEntityTooLarge, ErrorResponse{Error: "request body too large"})
		}
		return answer(http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
	}
	rec, err := set.Evaluate(q)
	if err != nil {
		return answer(evalStatus(err), ErrorResponse{Error: err.Error()})
	}
	return answer(http.StatusOK, rec)
}

// TestServeWireHeaders pins the headers a live Serve puts on the wire:
// every answer, a 200 and errors whose bodies sit on either side of
// autoLengthMax, is application/json with a Content-Length equal to
// its body's length, never chunked.
func TestServeWireHeaders(t *testing.T) {
	set := testSet(t)
	_, url, shutdown := startServer(t, Config{Load: staticLoader(set)})
	defer shutdown()

	type answer struct {
		body   string
		status int
		size   int // 0: any
	}
	cases := []answer{{body: mustJSON(t, experiments.Query{User: set.UserName(0), Policy: set.Policies()[1], Hour: 5}), status: http.StatusOK}}
	// An unknown user's 404 echoes the name, so the name's length sets
	// the answer's.
	q := experiments.Query{Policy: set.Policies()[0]}
	_, err := set.Evaluate(q)
	empty, _ := json.Marshal(ErrorResponse{Error: err.Error()})
	for _, size := range []int{autoLengthMax - 1, autoLengthMax, autoLengthMax + 1, 3 * autoLengthMax} {
		q.User = strings.Repeat("x", size-len(empty)-1)
		cases = append(cases, answer{body: mustJSON(t, q), status: http.StatusNotFound, size: size})
	}
	for _, c := range cases {
		resp, err := http.Post(url+"/v1/recommend", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status || (c.size > 0 && len(got) != c.size) {
			t.Fatalf("status %d, %d bytes; want %d, %d bytes: %s", resp.StatusCode, len(got), c.status, c.size, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%d-byte answer: Content-Type = %q", len(got), ct)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) || len(resp.TransferEncoding) > 0 {
			t.Errorf("%d-byte answer: Content-Length = %q, Transfer-Encoding %q", len(got), cl, resp.TransferEncoding)
		}
	}
}

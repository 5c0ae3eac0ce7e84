package ridserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rimarket/internal/experiments"
)

// FuzzRidRequest drives any method, query string and body through the
// server's handler on the test snapshot. No answer may be a 5xx, and
// every 200 must carry exactly the offline evaluation's bytes for the
// query that the handler's own decoding (the first JSON value, unknown
// fields refused) reads from the body.
func FuzzRidRequest(f *testing.F) {
	set := testSet(f)
	seed := func(q experiments.Query) []byte {
		b, err := json.Marshal(q)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	user, policy := set.UserName(0), set.Policies()[0]
	for _, body := range [][]byte{
		seed(experiments.Query{User: user, Policy: set.Policies()[1]}),
		seed(experiments.Query{User: user, Policy: policy, Hour: set.Horizon() - 1}),
		[]byte("{not json"),
		[]byte(`{"user":"u","policy":"p","hour":0,"extra":1}`),
		[]byte(`{"user":"` + strings.Repeat("x", 512) + `"}`),
		[]byte(`{"user":"nobody","policy":"` + policy + `","hour":0}`),
		seed(experiments.Query{User: user, Policy: "Sell-Everything"}),
		seed(experiments.Query{User: user, Policy: policy, Hour: -1}),
		seed(experiments.Query{User: user, Policy: policy, Instance: 99}),
		append(seed(experiments.Query{User: user, Policy: policy}), " trailing"...),
	} {
		f.Add(http.MethodPost, "", body)
	}
	f.Add(http.MethodGet, "user="+user, []byte(nil))
	f.Add(http.MethodPut, "", seed(experiments.Query{User: user, Policy: policy}))

	s, err := New(context.Background(), Config{Load: staticLoader(set)})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, method, query string, body []byte) {
		req, err := http.NewRequest(method, "/v1/recommend?"+query, bytes.NewReader(body))
		if err != nil {
			t.Skip() // no client can send it
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s ?%q %q: status %d, body %s", method, query, body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var q experiments.Query
		if err := dec.Decode(&q); err != nil {
			t.Fatalf("%s %q: 200 for a body the handler's decoder refuses: %v", method, body, err)
		}
		if want := offlineBytes(t, set, q); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s %q:\n got %s\nwant %s", method, body, rec.Body, want)
		}
	})
}

package ridserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"rimarket/internal/experiments"
)

// benchQueries cycles realistic load across the snapshot: every user,
// a policy rotation, and hours spread over the horizon, each with its
// request body pre-marshaled so the benchmark times the server, not
// the load generator.
func benchQueries(b *testing.B, set *experiments.DecisionSet) [][]byte {
	b.Helper()
	var bodies [][]byte
	policies := set.Policies()
	hours := []int{0, set.Horizon() / 3, set.Horizon() - 1}
	for ui := 0; ui < set.Users(); ui++ {
		if set.Reserved(ui) == 0 {
			continue
		}
		q := experiments.Query{
			User:   set.UserName(ui),
			Policy: policies[ui%len(policies)],
			Hour:   hours[ui%len(hours)],
		}
		body, err := json.Marshal(q)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

func benchServer(b *testing.B) (*Server, [][]byte) {
	b.Helper()
	set := testSet(b)
	s, err := New(context.Background(), Config{Load: staticLoader(set)})
	if err != nil {
		b.Fatal(err)
	}
	return s, benchQueries(b, set)
}

func benchRequest(body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// BenchmarkRidServe drives the full handler stack — mux, robustness
// envelope, decode, lock-free snapshot evaluation, single-write encode
// — through in-process ResponseWriters, so the numbers isolate the
// serving hot path from kernel networking.
//
//   - mode=serve is the sequential per-request cost; its allocs/op pins
//     the "hot path allocates only for JSON encode/decode" claim.
//   - mode=p99 reports the 99th-percentile request latency as its
//     ns/op column (via ReportMetric), so the committed baseline gates
//     tail latency, not just the mean.
//   - mode=throughput hammers the handler from GOMAXPROCS goroutines;
//     ns/op is wall time per request under contention, and req/s is
//     reported alongside for the experiment log.
//
// scripts/bench.sh gates all three against BENCH.json and fails CI if
// any regresses beyond tolerance.
func BenchmarkRidServe(b *testing.B) {
	b.Run("mode=serve", func(b *testing.B) {
		s, bodies := benchServer(b)
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rw := &recordWriter{header: http.Header{}}
			h.ServeHTTP(rw, benchRequest(bodies[i%len(bodies)]))
			if rw.status != http.StatusOK {
				b.Fatalf("request %d: status %d, body %s", i, rw.status, rw.buf.String())
			}
		}
	})

	b.Run("mode=p99", func(b *testing.B) {
		s, bodies := benchServer(b)
		h := s.Handler()
		lat := make([]int64, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rw := &recordWriter{header: http.Header{}}
			start := time.Now()
			h.ServeHTTP(rw, benchRequest(bodies[i%len(bodies)]))
			lat = append(lat, time.Since(start).Nanoseconds())
			if rw.status != http.StatusOK {
				b.Fatalf("request %d: status %d, body %s", i, rw.status, rw.buf.String())
			}
		}
		b.StopTimer()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99 := lat[(len(lat)-1)*99/100]
		// Report the tail, not the mean, as this mode's ns/op: benchgate
		// records only the standard columns, so publishing p99 under
		// ns/op is what puts tail latency behind the regression gate.
		b.ReportMetric(float64(p99), "ns/op")
	})

	b.Run("mode=throughput", func(b *testing.B) {
		s, bodies := benchServer(b)
		h := s.Handler()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				rw := &recordWriter{header: http.Header{}}
				h.ServeHTTP(rw, benchRequest(bodies[i%len(bodies)]))
				if rw.status != http.StatusOK && rw.status != http.StatusServiceUnavailable {
					b.Fatalf("status %d, body %s", rw.status, rw.buf.String())
				}
				i++
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

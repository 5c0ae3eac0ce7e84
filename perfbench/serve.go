package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rimarket/internal/experiments"
	"rimarket/internal/gtrace"
	"rimarket/internal/pricing"
	"rimarket/internal/ridserver"
	"rimarket/internal/workload"
)

// The open-loop arrival rates in requests per second. They were chosen
// once at about 10%, 40% and 70% of the closed-loop capacity measured on
// a 2-CPU Intel Xeon (two load goroutines against the in-process server
// at paper scale, ~33k requests/s) and are fixed, so a faster or slower
// server shows as latency at the same offered load.
var rates = []struct {
	name string
	rps  float64
}{{"low", 3300}, {"mid", 13200}, {"high", 23100}}

const (
	// buildDir holds build output and scratch files inside the checkout.
	buildDir = ".bench_build"
	// mixSize is the number of distinct queries cycled through.
	mixSize = 8192
	// errorShare of the mix are queries that must fail: half name an
	// unknown user (404), half an hour past the horizon (400).
	errorShare = 0.05
	// latencyLimit is the p99 a rate must meet to count toward max_rps.
	latencyLimit = time.Millisecond
	// genLagBound is how late the generator may send (p99) before its
	// phase is reported invalid rather than slow.
	genLagBound = time.Millisecond
)

// ridServe measures rid. Set-up is cold start to ready: ridserver.New
// building its snapshot from an EC2-log trace directory, listening, and
// /readyz answering 200. The measured phase is closed-loop passes of a
// fixed request count (run_s), then open-loop phases at the three fixed
// rates, then Server.Reload back to back under the mid rate.
func ridServe(ctx context.Context, o options, t *tally, m metrics, report map[string]any) error {
	cfg := cohortConfig(o)
	dir, err := writeCohortDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if o.trace {
		return traceLayers(ctx, o, scenario{base: cfg, cards: []pricing.InstanceType{cfg.Instance}, policies: allPolicies, traceDir: dir}, t, m, report)
	}

	var servers []*liveServer
	defer func() {
		for _, s := range servers {
			s.stop()
		}
	}()
	setup, err := setups(func() error {
		s, err := startServer(ctx, ridserver.Config{Load: snapshotLoader(cfg, dir)})
		if err != nil {
			return err
		}
		servers = append(servers, s)
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range servers[:len(servers)-1] {
		if err := s.stop(); err != nil {
			return err
		}
	}
	srv := servers[len(servers)-1]
	servers = servers[len(servers)-1:]
	mix, err := buildMix(srv.srv.Snapshot(), o.seed, mixSize)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()

	perPass := 20000
	if !o.full {
		perPass = 500
	}
	ps, err := passes(o.budget*6/10, func() error {
		closedLoop(client, srv.url, mix, perPass, t)
		return nil
	})
	if err != nil {
		return err
	}
	var phases []phase
	maxRPS := 0.0
	for _, r := range rates {
		ph := openLoop(client, srv.url, mix, r.name, r.rps, o.budget*8/100, t)
		phases = append(phases, ph)
		if ph.Valid && !ph.Backlog && ph.Failed == 0 && ph.P99us <= float64(latencyLimit/time.Microsecond) {
			maxRPS = r.rps
		}
	}
	hp := startHeapPeak()
	reloads, rph, err := reloadPhase(ctx, srv, client, mix, o.budget*16/100, t)
	reloadPeak := hp.Stop()
	if err != nil {
		return err
	}

	m.set("setup_s", setup, "s")
	ps.set(m, report)
	closedRPS := make([]float64, len(ps.wall))
	for i, w := range ps.wall {
		closedRPS[i] = float64(perPass) / w
	}
	report["requests_per_pass"] = perPass
	report["pass_rps"] = closedRPS
	report["reload_heap_peak_mb"] = reloadPeak
	report["open_loop"] = append(phases, rph)
	report["max_rps"] = maxRPS
	report["reload_s"] = reloads
	if len(reloads) > 0 {
		report["reload_median_s"] = median(reloads)
	}
	report["reload_p99_us"] = rph.P99us
	return nil
}

// writeCohortDir synthesizes the config's cohort and writes it as one
// EC2 usage log per user into a fresh directory under buildDir; names
// are zero-padded so the loader's name order is cohort order.
func writeCohortDir(cfg experiments.Config) (string, error) {
	cohort, err := workload.NewCohort(workload.CohortConfig{PerGroup: cfg.PerGroup, Hours: cfg.Hours, Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, "traces-")
	if err != nil {
		return "", err
	}
	for i, tr := range cohort {
		if err := writeLog(filepath.Join(dir, fmt.Sprintf("u%05d.csv", i)), tr); err != nil {
			os.RemoveAll(dir)
			return "", err
		}
	}
	return dir, nil
}

func writeLog(path string, tr workload.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gtrace.WriteEC2Log(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshotLoader is rid -tracedir's snapshot build: strict trace load,
// plan, decision tables.
func snapshotLoader(cfg experiments.Config, dir string) func(context.Context) (*experiments.DecisionSet, error) {
	return func(ctx context.Context) (*experiments.DecisionSet, error) {
		traces, _, err := gtrace.LoadEC2LogFS(os.DirFS(dir), gtrace.LoadOptions{Policy: gtrace.Strict})
		if err != nil {
			return nil, err
		}
		plan, err := experiments.PlanTraces(ctx, cfg, traces)
		if err != nil {
			return nil, err
		}
		return plan.Decisions(ctx)
	}
}

// liveServer is a ridserver serving on a loopback listener.
type liveServer struct {
	srv    *ridserver.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startServer builds the server, serves it on a loopback port and
// returns once /readyz answers 200.
func startServer(ctx context.Context, cfg ridserver.Config) (*liveServer, error) {
	srv, err := ridserver.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &liveServer{srv: srv, url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(sctx, ln) }()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	for {
		resp, err := probe.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			cancel()
			return nil, fmt.Errorf("server stopped before ready: %v", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// stop drains the server and waits for Serve to return. It is safe to
// call more than once.
func (s *liveServer) stop() error {
	s.cancel()
	err, ok := <-s.done
	if ok {
		close(s.done)
	}
	return err
}

// newClient keeps at most workers() connections open, one per load
// goroutine.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: workers(), MaxConnsPerHost: workers(), DisableCompression: true},
		Timeout:   10 * time.Second,
	}
}

// query is one request of the mix with the answer it must get: status,
// and for a 200 the exact body, json.Marshal(Evaluate(q)) + "\n" on the
// served snapshot.
type query struct {
	q      experiments.Query
	body   []byte
	status int
	want   []byte
}

// buildMix draws n queries from seed against the snapshot: users that
// hold reservations, any policy, instance and hour, with errorShare of
// them made to fail.
func buildMix(set *experiments.DecisionSet, seed int64, n int) ([]query, error) {
	var users []int
	for i := 0; i < set.Users(); i++ {
		if set.Reserved(i) > 0 {
			users = append(users, i)
		}
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("snapshot has no reserved instances to query")
	}
	rng := rand.New(rand.NewSource(seed))
	pols := set.Policies()
	mix := make([]query, n)
	for i := range mix {
		u := users[rng.Intn(len(users))]
		q := experiments.Query{User: set.UserName(u), Policy: pols[rng.Intn(len(pols))], Instance: rng.Intn(set.Reserved(u)), Hour: rng.Intn(set.Horizon())}
		status := http.StatusOK
		switch r := rng.Float64(); {
		case r < errorShare/2:
			q.User = fmt.Sprintf("nobody-%d", i)
			status = http.StatusNotFound
		case r < errorShare:
			q.Hour = set.Horizon() + rng.Intn(set.Horizon())
			status = http.StatusBadRequest
		}
		body, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		mix[i] = query{q: q, body: body, status: status}
		rec, err := set.Evaluate(q)
		if (err == nil) != (status == http.StatusOK) {
			return nil, fmt.Errorf("query %s: Evaluate error %v, expected status %d", body, err, status)
		}
		if err == nil {
			want, err := json.Marshal(rec)
			if err != nil {
				return nil, err
			}
			mix[i].want = append(want, '\n')
		}
	}
	return mix, nil
}

// verify checks one answer against the query's expectation.
func (q *query) verify(status int, body []byte) error {
	if status != q.status {
		return fmt.Errorf("query %s: status %d, want %d", q.body, status, q.status)
	}
	if q.want != nil && !bytes.Equal(body, q.want) {
		return fmt.Errorf("query %s: body %q, want %q", q.body, body, q.want)
	}
	return nil
}

// send posts one query and verifies the answer; a transport error, a
// wrong status (a 5xx or 503 shed included) or a wrong byte fails it.
func send(client *http.Client, url string, q *query) error {
	resp, err := client.Post(url+"/v1/recommend", "application/json", bytes.NewReader(q.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	return q.verify(resp.StatusCode, body)
}

// closedLoop sends n requests from workers() goroutines, each sending
// its next request when the previous answer arrives, and returns every
// request's latency.
func closedLoop(client *http.Client, url string, mix []query, n int, t *tally) []time.Duration {
	w := workers()
	lat := make([]time.Duration, n)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += w {
				t0 := time.Now()
				t.check(send(client, url, &mix[i%len(mix)]))
				lat[i] = time.Since(t0)
			}
		}(g)
	}
	wg.Wait()
	return lat
}

// phase is one open-loop rate phase. N is the sample count behind the
// percentiles. GenLagP99us is how late the generator sent beyond what
// a busy connection explains; above genLagBound the phase is invalid.
// Backlog marks latency that grew over the phase.
type phase struct {
	Name        string  `json:"name"`
	RPS         float64 `json:"rps"`
	N           int     `json:"n"`
	Failed      int64   `json:"failed"`
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	GenLagP99us float64 `json:"gen_lag_p99_us"`
	Backlog     bool    `json:"backlog"`
	Valid       bool    `json:"valid"`
}

// openLoop offers rps requests per second for dur from workers()
// goroutines on a fixed schedule: request i is due at i/rps, and goroutine
// g sends requests g, g+w, ... Each latency is timed from the request's
// due time, so a stall also delays — and is charged to — the requests
// queued behind it.
func openLoop(client *http.Client, url string, mix []query, name string, rps float64, dur time.Duration, t *tally) phase {
	w := workers()
	n := int(rps * dur.Seconds())
	lat := make([]time.Duration, n)
	lag := make([]time.Duration, n)
	failed := make([]int64, w)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var free time.Time
			for i := g; i < n; i += w {
				due := start.Add(time.Duration(float64(i) / rps * float64(time.Second)))
				waitUntil(due)
				sent := time.Now()
				if free.Before(due) {
					free = due
				}
				lag[i] = sent.Sub(free)
				err := send(client, url, &mix[i%len(mix)])
				t.check(err)
				if err != nil {
					failed[g]++
				}
				free = time.Now()
				lat[i] = free.Sub(due)
			}
		}(g)
	}
	wg.Wait()
	ph := phase{Name: name, RPS: rps, N: n, P50us: durQuantile(lat, 0.5), P99us: durQuantile(lat, 0.99), GenLagP99us: durQuantile(lag, 0.99)}
	for _, f := range failed {
		ph.Failed += f
	}
	ph.Valid = ph.GenLagP99us <= float64(genLagBound/time.Microsecond)
	if tenth := n / 10; tenth > 0 {
		first, last := durQuantile(lat[:tenth], 0.5), durQuantile(lat[n-tenth:], 0.5)
		ph.Backlog = last > max(2*first, float64(latencyLimit/time.Microsecond))
	}
	return ph
}

// timerSlack is how early the generator stops sleeping: a timer wakes up
// to a few hundred microseconds late, so the rest of the wait yields the
// CPU in a loop instead of oversleeping.
const timerSlack = 300 * time.Microsecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// reloadPhase offers the mid rate for dur while Server.Reload runs back
// to back, and returns each reload's seconds and the phase.
func reloadPhase(ctx context.Context, srv *liveServer, client *http.Client, mix []query, dur time.Duration, t *tally) ([]float64, phase, error) {
	var reloads []float64
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			t0 := time.Now()
			err := srv.srv.Reload(ctx)
			t.check(err)
			if err != nil {
				done <- err
				return
			}
			reloads = append(reloads, time.Since(t0).Seconds())
		}
	}()
	ph := openLoop(client, srv.url, mix, "reload", rates[1].rps, dur, t)
	close(stop)
	err := <-done
	return reloads, ph, err
}

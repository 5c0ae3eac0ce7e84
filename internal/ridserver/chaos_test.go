package ridserver

// The chaos suite: a simulated fleet of clients hammers a small
// server while faults are injected — handler panics, overload bursts,
// failing and stalling reloads — and every successful answer must
// stay bit-identical to the offline experiments evaluation. The
// degradation ladder under test: overload sheds (503), panics are
// contained (500, process survives), a bad reload keeps the old
// snapshot, and drains finish admitted work.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/fstest"
	"time"

	"rimarket/internal/experiments"
	"rimarket/internal/faultfs"
	"rimarket/internal/gtrace"
	"rimarket/internal/obs"
	"rimarket/internal/workload"
)

// queryPool enumerates valid queries with their expected response
// bytes, so storm workers can fire deterministic traffic and verify
// answers without evaluating under load.
type queryPool struct {
	bodies []string
	want   [][]byte
}

func buildQueryPool(t testing.TB, set *experiments.DecisionSet) *queryPool {
	t.Helper()
	pool := &queryPool{}
	hours := []int{0, set.Horizon() / 3, set.Horizon() - 1}
	for ui := 0; ui < set.Users(); ui++ {
		for _, policy := range set.Policies() {
			for j := 0; j < set.Reserved(ui) && j < 3; j++ {
				for _, h := range hours {
					q := experiments.Query{User: set.UserName(ui), Policy: policy, Instance: j, Hour: h}
					pool.bodies = append(pool.bodies, mustJSONTB(t, q))
					pool.want = append(pool.want, offlineBytes(t, set, q))
				}
			}
		}
	}
	if len(pool.bodies) == 0 {
		t.Fatal("empty query pool")
	}
	return pool
}

func mustJSONTB(t testing.TB, q experiments.Query) string {
	t.Helper()
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChaosStorm is the headline scenario: 8 clients, a 4-slot
// admission gate, one request in eight injected to panic, and a
// reloader flapping between healthy and failing loads — all at once.
// Invariants: every 200 carries offline-identical bytes, every 500
// maps to an injected panic, every 503 carries Retry-After, and the
// server exits the storm serving correctly.
func TestChaosStorm(t *testing.T) {
	set := testSet(t)
	pool := buildQueryPool(t, set)
	m := obs.New(obs.SystemClock)

	var failLoads atomic.Bool
	load := func(ctx context.Context) (*experiments.DecisionSet, error) {
		if failLoads.Load() {
			return nil, fmt.Errorf("chaos: injected load failure")
		}
		return set, nil
	}
	s, url, shutdown := startServer(t, Config{Load: load, MaxInflight: 4, Metrics: m})
	s.chaos = func(r *http.Request) {
		if r.Header.Get("X-Chaos") == "panic" {
			panic("chaos storm panic")
		}
	}

	tr := &http.Transport{MaxIdleConnsPerHost: 16}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	const workers, perWorker = 8, 40
	var (
		wg          sync.WaitGroup
		got200      atomic.Int64
		got500      atomic.Int64
		got503      atomic.Int64
		divergences atomic.Int64
		badStatus   atomic.Int64
	)
	stopReload := make(chan struct{})
	var reloadWG sync.WaitGroup
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopReload:
				return
			default:
			}
			failLoads.Store(i%2 == 1)
			_ = s.Reload(context.Background()) // failures roll back; either way serving continues
			time.Sleep(time.Millisecond)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < perWorker; i++ {
				qi := rng.Intn(len(pool.bodies))
				injectPanic := rng.Intn(8) == 0
				req, err := http.NewRequest(http.MethodPost, url+"/v1/recommend", strings.NewReader(pool.bodies[qi]))
				if err != nil {
					t.Error(err)
					return
				}
				if injectPanic {
					req.Header.Set("X-Chaos", "panic")
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("worker %d: transport error: %v", w, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					got200.Add(1)
					if injectPanic {
						t.Errorf("worker %d: panic-injected request answered 200", w)
					}
					if !bytes.Equal(body, pool.want[qi]) {
						divergences.Add(1)
					}
				case http.StatusInternalServerError:
					got500.Add(1)
					if !injectPanic {
						t.Errorf("worker %d: clean request answered 500: %s", w, body)
					}
				case http.StatusServiceUnavailable:
					got503.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("worker %d: 503 without Retry-After", w)
					}
				default:
					badStatus.Add(1)
					t.Errorf("worker %d: unexpected status %d: %s", w, resp.StatusCode, body)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopReload)
	reloadWG.Wait()

	if divergences.Load() != 0 {
		t.Fatalf("%d of %d successful answers diverged from the offline evaluation", divergences.Load(), got200.Load())
	}
	if got200.Load() == 0 {
		t.Fatal("storm produced no successful responses")
	}
	if got, want := m.ServePanics.Value(), got500.Load(); got != want {
		t.Errorf("panic counter = %d, but clients saw %d 500s", got, want)
	}
	t.Logf("storm: %d ok, %d panicked, %d shed (reloads: %d ok, %d failed)",
		got200.Load(), got500.Load(), got503.Load(), m.SnapshotReloads.Value(), m.SnapshotReloadFails.Value())

	// The storm is over: the snapshot must still answer exactly.
	s.chaos = nil
	status, _, body := postRecommend(t, url, pool.bodies[0])
	if status != http.StatusOK || !bytes.Equal(body, pool.want[0]) {
		t.Fatalf("post-storm request: status %d body %s", status, body)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("post-storm drain: %v", err)
	}
}

// traceCorpus renders n single-user EC2 usage logs into an in-memory
// directory, the substrate the reload-stall scenario loads through
// faultfs.
func traceCorpus(t testing.TB, n int) fstest.MapFS {
	t.Helper()
	m := fstest.MapFS{}
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		tr := workload.Trace{
			User:   fmt.Sprintf("app-%02d", i),
			Demand: []int{i + 1, i + 2, i + 3, i + 2, i + 1, i + 4, i + 2, i + 3},
		}
		if err := gtrace.WriteEC2Log(&buf, tr); err != nil {
			t.Fatal(err)
		}
		m[fmt.Sprintf("app-%02d.csv", i)] = &fstest.MapFile{Data: buf.Bytes()}
	}
	return m
}

// TestReloadStallKeepsOldSnapshot drives the SIGHUP failure path end
// to end with the faultfs stall mode: a reload whose backing store
// stalls past ReloadTimeout fails, the old snapshot keeps serving
// bit-identically, and once the stall clears the next reload swaps in
// the new data.
func TestReloadStallKeepsOldSnapshot(t *testing.T) {
	cfg := experiments.TestScaleConfig()
	cfg.Hours = 120 // short horizon: replays stay cheap for 3 trace users
	cfg.Instance.PeriodHours = 60
	cfg.Instance.Upfront = cfg.Instance.Upfront / 12

	clean := traceCorpus(t, 3)
	stalled := faultfs.New(clean)
	// Every read of the stalled file sleeps far past the reload budget,
	// so the first read alone blows the deadline — deterministically.
	stalled.InjectStall("app-00.csv", 500*time.Millisecond)

	var mu sync.Mutex
	useStalled := true
	load := func(ctx context.Context) (*experiments.DecisionSet, error) {
		mu.Lock()
		st := useStalled
		mu.Unlock()
		var traces []workload.Trace
		var err error
		if st {
			traces, _, err = gtrace.LoadFS(stalled, gtrace.LoadOptions{Policy: gtrace.Strict})
		} else {
			traces, _, err = gtrace.LoadFS(clean, gtrace.LoadOptions{Policy: gtrace.Strict})
		}
		if err != nil {
			return nil, err
		}
		// The loader honors the reload budget: a stalled read that ate
		// the deadline fails the reload here.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan, err := experiments.PlanTraces(ctx, cfg, traces)
		if err != nil {
			return nil, err
		}
		return plan.Decisions(ctx)
	}

	// Initial load: stall-free (the stalled file is only injected for
	// reloads below), so bring the server up from the clean corpus.
	mu.Lock()
	useStalled = false
	mu.Unlock()
	m := obs.New(obs.SystemClock)
	s, err := New(context.Background(), Config{Load: load, ReloadTimeout: 50 * time.Millisecond, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	q := experiments.Query{User: "app-00", Policy: before.Policies()[0], Instance: 0, Hour: 0}
	wantBytes := offlineBytes(t, before, q)

	// Reload through the stalled filesystem: must fail and roll back.
	mu.Lock()
	useStalled = true
	mu.Unlock()
	if err := s.Reload(context.Background()); err == nil {
		t.Fatal("stalled reload reported success")
	}
	if s.Snapshot() != before {
		t.Fatal("stalled reload swapped the snapshot")
	}
	if m.SnapshotReloadFails.Value() != 1 {
		t.Errorf("reload-fail counter = %d, want 1", m.SnapshotReloadFails.Value())
	}
	if got, err := before.Evaluate(q); err != nil {
		t.Fatal(err)
	} else if b, _ := json.Marshal(got); !bytes.Equal(append(b, '\n'), wantBytes) {
		t.Fatal("old snapshot no longer answers identically after failed reload")
	}

	// Stall clears: the next reload succeeds and swaps.
	mu.Lock()
	useStalled = false
	mu.Unlock()
	if err := s.Reload(context.Background()); err != nil {
		t.Fatalf("clean reload after stall failed: %v", err)
	}
	if m.SnapshotReloads.Value() != 1 {
		t.Errorf("reload counter = %d, want 1", m.SnapshotReloads.Value())
	}
}

// TestServeCycleNoGoroutineLeak runs repeated start/serve/drain/stop
// cycles — with traffic — and requires the goroutine count to settle
// back to its baseline: a daemon that leaks per lifecycle is a daemon
// that dies on the operator who restarts it nightly.
func TestServeCycleNoGoroutineLeak(t *testing.T) {
	set := testSet(t) // build before the baseline: the pool is shared state
	tr := &http.Transport{DisableKeepAlives: true}
	client := &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()

	for cycle := 0; cycle < 8; cycle++ {
		s, err := New(context.Background(), Config{Load: staticLoader(set)})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- s.Serve(ctx, ln) }()
		waitReady(t, s)

		for i := 0; i < 3; i++ {
			resp, err := client.Post("http://"+ln.Addr().String()+"/v1/recommend", "application/json",
				strings.NewReader(mustJSONTB(t, experiments.Query{User: set.UserName(0), Policy: set.Policies()[0]})))
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cycle %d: status %d", cycle, resp.StatusCode)
			}
		}
		if err := s.Reload(ctx); err != nil {
			t.Fatalf("cycle %d reload: %v", cycle, err)
		}
		cancel()
		if err := <-errc; err != nil {
			t.Fatalf("cycle %d drain: %v", cycle, err)
		}
	}
	tr.CloseIdleConnections()
	settleGoroutines(t, baseline)
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (plus scheduler slack) or fails.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObsParityResponseBytes pins that observability never perturbs
// answers: a metrics-and-logging server and a bare one serve
// byte-identical responses for an identical request sequence,
// successes and errors alike.
func TestObsParityResponseBytes(t *testing.T) {
	set := testSet(t)
	_, urlOn, shutdownOn := startServer(t, Config{Load: staticLoader(set), Metrics: obs.New(obs.SystemClock), Log: io.Discard})
	defer shutdownOn()
	_, urlOff, shutdownOff := startServer(t, Config{Load: staticLoader(set)})
	defer shutdownOff()

	pool := buildQueryPool(t, set)
	bodies := append([]string{}, pool.bodies...)
	// Error-path requests ride along: parity covers the whole surface.
	bodies = append(bodies,
		`{"user":"nobody","policy":"x","hour":0}`,
		`{not json`,
		mustJSONTB(t, experiments.Query{User: set.UserName(0), Policy: set.Policies()[0], Hour: -5}),
	)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 64; i++ {
		body := bodies[rng.Intn(len(bodies))]
		stOn, _, bOn := postRecommend(t, urlOn, body)
		stOff, _, bOff := postRecommend(t, urlOff, body)
		if stOn != stOff || !bytes.Equal(bOn, bOff) {
			t.Fatalf("obs parity broken for %s:\n  with metrics:    %d %s\n  without metrics: %d %s",
				body, stOn, bOn, stOff, bOff)
		}
	}
}

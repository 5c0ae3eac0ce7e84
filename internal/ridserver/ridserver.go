// Package ridserver is the long-running recommendation daemon behind
// cmd/rid: it holds the pricing catalog, cohort reservation plans and
// Keep-Reserved baselines resident as one immutable
// experiments.DecisionSet snapshot and answers "should user U sell
// instance I at hour h?" over HTTP/JSON as point-in-time policy
// evaluation — the deployment shape a fleet operator runs, where
// sell/keep decisions arrive continuously as queries rather than
// full-trace replays.
//
// A resident process serving many users is above all a robustness
// problem, so the envelope is the architecture:
//
//   - evaluation state is a read-only snapshot swapped atomically
//     (atomic.Pointer), so request handling is lock-free;
//   - a recommendation's body and answer share one pooled buffer: a
//     strict fast path decodes the canonical query, anything else goes
//     to encoding/json, and append encoders write json.Marshal's bytes
//     (wire.go), so the handler chain makes nine allocations a request,
//     four of them the deadline context (BenchmarkRidServe/mode=serve
//     reads 25 with its own request set-up);
//   - a bounded admission gate sheds load with 503 + Retry-After
//     instead of queueing toward collapse;
//   - every request gets a deadline and a body-size limit;
//   - handler panics are contained per request: the client gets a 500,
//     the process survives, the next request succeeds;
//   - /healthz answers while the process lives, /readyz flips to 503
//     before the listener drains, so balancers stop routing first;
//   - shutdown drains admitted requests within a deadline;
//   - snapshot reloads (SIGHUP in cmd/rid) validate the new snapshot
//     and roll back — keep serving the old one — on any failure.
//
// Answers are bit-identical to the offline experiments pipeline for
// the same (user, instance, hour) queries, before, during and after
// every fault the chaos suite injects: the snapshot is built by the
// same engine replays, and serving never mutates it.
package ridserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rimarket/internal/experiments"
	"rimarket/internal/obs"
)

// Default envelope parameters, applied by New when the corresponding
// Config field is zero.
const (
	// DefaultMaxInflight bounds concurrently admitted requests.
	DefaultMaxInflight = 256
	// DefaultRequestTimeout is the per-request deadline.
	DefaultRequestTimeout = 5 * time.Second
	// DefaultMaxBodyBytes bounds a request body; a Query is tiny, so
	// anything near this limit is garbage or abuse.
	DefaultMaxBodyBytes = 64 << 10
	// DefaultDrainTimeout bounds graceful shutdown: admitted requests
	// get this long to finish before the listener hard-closes.
	DefaultDrainTimeout = 10 * time.Second
	// DefaultReloadTimeout bounds one snapshot reload; a reload
	// stalled past it fails and the old snapshot keeps serving.
	DefaultReloadTimeout = time.Minute
)

// ErrDrainTimeout marks a graceful shutdown that ran out its drain
// deadline with requests still in flight; those connections were
// hard-closed. cmd/rid maps it to the partial exit code.
var ErrDrainTimeout = errors.New("ridserver: drain deadline exceeded")

// Config parameterizes a Server.
type Config struct {
	// Load builds the evaluation snapshot. It is called once by New and
	// again on every Reload; it must be safe to call repeatedly and
	// should honor ctx cancellation (reloads run under ReloadTimeout).
	// Returning an error leaves the previous snapshot serving.
	Load func(ctx context.Context) (*experiments.DecisionSet, error)

	// MaxInflight bounds concurrently admitted evaluation requests;
	// request MaxInflight+1 is shed with 503 + Retry-After. Probe
	// endpoints (/healthz, /readyz) bypass the gate so balancers keep
	// seeing the truth under overload.
	MaxInflight int
	// RequestTimeout is the per-request deadline, derived from the
	// request context so handlers and chaos hooks observe it.
	RequestTimeout time.Duration
	// MaxBodyBytes caps a request body; larger bodies get 413.
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown (see ErrDrainTimeout).
	DrainTimeout time.Duration
	// ReloadTimeout bounds one Reload's Load call.
	ReloadTimeout time.Duration

	// Metrics, when non-nil, receives the serving counters and the
	// request-latency histogram. Serving with metrics on is proven not
	// to change response bytes (obs-parity test).
	Metrics *obs.Metrics
	// Log receives structured one-line JSON log records (panics, sheds,
	// reload outcomes, lifecycle). Nil discards them.
	Log io.Writer
	// Clock stamps log records; defaults to obs.SystemClock. Serving
	// results never depend on it.
	Clock obs.Clock
}

// Server is one daemon instance. Create with New, serve with Serve,
// swap snapshots with Reload. All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	snap    atomic.Pointer[experiments.DecisionSet]
	gate    chan struct{}
	ready   atomic.Bool
	handler http.Handler

	reloadMu sync.Mutex
	logMu    sync.Mutex

	// chaos, when non-nil, runs between request decode and evaluation.
	// It exists for the chaos suite to inject handler panics and stalls
	// from inside the envelope; production servers never set it.
	chaos func(*http.Request)
}

// New validates cfg, applies defaults, builds the initial snapshot via
// cfg.Load, and returns a server ready to Serve. A failed or invalid
// initial load is fatal: a daemon with nothing to serve should not
// come up ready.
func New(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.Load == nil {
		return nil, fmt.Errorf("ridserver: Config.Load is required")
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("ridserver: MaxInflight %d must be positive", cfg.MaxInflight)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("ridserver: RequestTimeout %v must be positive", cfg.RequestTimeout)
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("ridserver: MaxBodyBytes %d must be positive", cfg.MaxBodyBytes)
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.DrainTimeout < 0 {
		return nil, fmt.Errorf("ridserver: DrainTimeout %v must be positive", cfg.DrainTimeout)
	}
	if cfg.ReloadTimeout == 0 {
		cfg.ReloadTimeout = DefaultReloadTimeout
	}
	if cfg.ReloadTimeout < 0 {
		return nil, fmt.Errorf("ridserver: ReloadTimeout %v must be positive", cfg.ReloadTimeout)
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.SystemClock
	}
	s := &Server{cfg: cfg, gate: make(chan struct{}, cfg.MaxInflight)}
	set, err := s.load(ctx)
	if err != nil {
		return nil, fmt.Errorf("ridserver: initial snapshot: %w", err)
	}
	s.snap.Store(set)
	s.handler = s.routes()
	return s, nil
}

// load runs cfg.Load under the reload deadline and validates the
// result; it never touches the served snapshot.
func (s *Server) load(ctx context.Context) (*experiments.DecisionSet, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ReloadTimeout)
	defer cancel()
	set, err := s.cfg.Load(ctx)
	if err != nil {
		return nil, err
	}
	if err := validateSnapshot(set); err != nil {
		return nil, err
	}
	return set, nil
}

// validateSnapshot is the structural acceptance check a snapshot must
// pass before it may serve: it must exist and answer for at least one
// user, one policy, and one hour.
func validateSnapshot(set *experiments.DecisionSet) error {
	switch {
	case set == nil:
		return fmt.Errorf("ridserver: Load returned a nil snapshot")
	case set.Users() == 0:
		return fmt.Errorf("ridserver: snapshot has no users")
	case len(set.Policies()) == 0:
		return fmt.Errorf("ridserver: snapshot has no policies")
	case set.Horizon() <= 0:
		return fmt.Errorf("ridserver: snapshot horizon %d must be positive", set.Horizon())
	}
	return nil
}

// Snapshot returns the currently served snapshot.
func (s *Server) Snapshot() *experiments.DecisionSet { return s.snap.Load() }

// Ready reports whether the server is serving and not draining — the
// /readyz answer.
func (s *Server) Ready() bool { return s.ready.Load() }

// Handler returns the server's HTTP handler, for tests and embedders
// that bring their own listener lifecycle. The robustness envelope
// (gate, deadlines, panic containment) is inside the handler, so it
// applies however the handler is mounted.
func (s *Server) Handler() http.Handler { return s.handler }

// Reload builds a fresh snapshot via cfg.Load and swaps it in
// atomically. On any failure — Load error, stall past ReloadTimeout,
// or a snapshot failing validation — the current snapshot keeps
// serving untouched and the error is returned: a bad reload degrades
// to "stale", never to "down". Concurrent Reloads serialize.
func (s *Server) Reload(ctx context.Context) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	set, err := s.load(ctx)
	if err != nil {
		if m := s.cfg.Metrics; m != nil {
			m.SnapshotReloadFails.Add(1)
		}
		s.logf("error", "snapshot reload failed; keeping current snapshot", "err", err.Error())
		return fmt.Errorf("ridserver: reload: %w", err)
	}
	s.snap.Store(set)
	if m := s.cfg.Metrics; m != nil {
		m.SnapshotReloads.Add(1)
	}
	s.logf("info", "snapshot reloaded",
		"users", itoa(set.Users()), "policies", itoa(len(set.Policies())), "hours", itoa(set.Horizon()))
	return nil
}

// Serve accepts connections on ln until ctx is cancelled, then drains:
// readiness flips to 503 first, admitted requests get DrainTimeout to
// finish, and whatever remains is hard-closed with ErrDrainTimeout.
// A clean drain returns nil. Serve owns ln and closes it on return.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler: s.handler,
		// Slow-loris containment: a client must deliver its header and
		// body within the request deadline plus slack, or the connection
		// is cut server-side.
		ReadHeaderTimeout: s.cfg.RequestTimeout,
		ReadTimeout:       2 * s.cfg.RequestTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.ready.Store(true)
	s.logf("info", "serving", "addr", ln.Addr().String())

	select {
	case err := <-errc:
		// The listener failed underneath us; nothing is draining.
		s.ready.Store(false)
		return fmt.Errorf("ridserver: %w", err)
	case <-ctx.Done():
	}

	// Drain: stop reporting ready before the listener closes, so
	// balancers route away while the last admitted requests finish.
	s.ready.Store(false)
	s.logf("info", "draining", "timeout", s.cfg.DrainTimeout.String())
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	<-errc // reap the Serve goroutine (http.ErrServerClosed)
	if err != nil {
		// Deadline ran out with requests still in flight: hard-close.
		srv.Close()
		s.logf("error", "drain deadline exceeded; connections closed", "err", err.Error())
		return fmt.Errorf("%w after %v", ErrDrainTimeout, s.cfg.DrainTimeout)
	}
	s.logf("info", "drained")
	return nil
}

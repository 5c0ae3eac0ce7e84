// Command rid is the resident recommendation daemon: it builds the
// same deterministic evaluation state as riexp — pricing catalog,
// cohort reservation plans, Keep-Reserved baselines — and serves
// "should user U sell instance I at hour h?" over HTTP/JSON.
//
// Usage:
//
//	rid                                  # test-scale synthetic cohort on localhost:8377
//	rid -addr :9000 -scale full          # paper-scale cohort
//	rid -tracedir traces/                # real traces (.csv, .csv.gz, .colt) instead of the cohort
//
// Endpoints: POST /v1/recommend evaluates one typed Query; GET
// /v1/info describes the served snapshot; /healthz and /readyz are
// liveness and readiness probes; /metricsz (with -metrics) snapshots
// the serving counters.
//
// Signals: SIGHUP rebuilds the snapshot (re-reading -tracedir) and
// swaps it in atomically — a failed rebuild keeps the old snapshot
// serving. The first SIGINT/SIGTERM drains gracefully within
// -drain-timeout; a second hard-exits with code 3.
//
// Exit codes: 0 after a clean drain, 1 on a run error, 2 on
// command-line misuse, 3 when the drain deadline cut off in-flight
// requests (partial: every completed response was correct, the
// remainder never finished).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rimarket/internal/cli"
	"rimarket/internal/experiments"
	"rimarket/internal/gtrace"
	"rimarket/internal/ridserver"
)

func main() {
	ctx, stop := cli.SignalContext()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rid:", err)
	}
	os.Exit(cli.ExitCode(err))
}

// params is the parsed rid command line, split from flag handling so
// the serving path is testable without a flag set.
type params struct {
	addr          string
	maxInflight   int
	reqTimeout    time.Duration
	drainTimeout  time.Duration
	reloadTimeout time.Duration
	maxBody       int64

	cohort cli.CohortFlags
}

func run(ctx context.Context, args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("rid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p params
	fs.StringVar(&p.addr, "addr", "localhost:8377", "listen `address`; port 0 picks a free port (the chosen address is printed on startup)")
	fs.IntVar(&p.maxInflight, "max-inflight", ridserver.DefaultMaxInflight, "bound on concurrently admitted requests; excess load is shed with 503 + Retry-After")
	fs.DurationVar(&p.reqTimeout, "request-timeout", ridserver.DefaultRequestTimeout, "per-request deadline; requests past it answer 504")
	fs.DurationVar(&p.drainTimeout, "drain-timeout", ridserver.DefaultDrainTimeout, "graceful-shutdown budget: admitted requests get this long to finish before connections are cut (exit 3)")
	fs.DurationVar(&p.reloadTimeout, "reload-timeout", ridserver.DefaultReloadTimeout, "budget for one SIGHUP snapshot rebuild; a stalled rebuild fails and the old snapshot keeps serving")
	fs.Int64Var(&p.maxBody, "max-body", ridserver.DefaultMaxBodyBytes, "maximum request body size in `bytes`; larger bodies answer 413")
	p.cohort.Register(fs)
	var obsFlags cli.ObsFlags
	obsFlags.RegisterBasic(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.Usage(err)
	}

	sess, err := obsFlags.Start("rid", args, stderr)
	if err != nil {
		return err
	}
	return sess.Finish(runParsed(sess.Context(ctx), p, sess, w, stderr))
}

func runParsed(ctx context.Context, p params, sess *cli.ObsSession, w, stderr io.Writer) error {
	cfg, err := p.cohort.Config()
	if err != nil {
		return err
	}
	if mf := sess.Manifest(); mf != nil {
		mf.Seed = cfg.Seed
		mf.Config = cfg
	}

	srv, err := ridserver.New(ctx, ridserver.Config{
		Load:           snapshotLoader(cfg, p.cohort.TraceDir),
		MaxInflight:    p.maxInflight,
		RequestTimeout: p.reqTimeout,
		MaxBodyBytes:   p.maxBody,
		DrainTimeout:   p.drainTimeout,
		ReloadTimeout:  p.reloadTimeout,
		Metrics:        sess.Metrics(),
		Log:            stderr,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return fmt.Errorf("listen on %q: %w", p.addr, err)
	}
	// The chosen address goes to stdout as the one machine-readable
	// startup line: with -addr :0 it is how callers learn the port.
	fmt.Fprintf(w, "rid: listening on %s\n", ln.Addr())

	// SIGHUP → rebuild-and-swap. The watcher stops when serving ends;
	// reload failures are logged (by the server) and reported here, and
	// never interrupt serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	stopHup := make(chan struct{})
	defer func() {
		signal.Stop(hup)
		close(stopHup)
	}()
	go func() {
		for {
			select {
			case <-stopHup:
				return
			case <-hup:
				if err := srv.Reload(ctx); err != nil {
					fmt.Fprintln(stderr, "rid:", err)
				}
			}
		}
	}()

	if err := srv.Serve(ctx, ln); err != nil {
		if errors.Is(err, ridserver.ErrDrainTimeout) {
			// Completed responses were correct; the cut-off remainder makes
			// the run partial, not failed.
			return fmt.Errorf("%w: %w", err, cli.ErrPartial)
		}
		return err
	}
	return nil
}

// snapshotLoader returns the Load closure the server calls at startup
// and on every SIGHUP: plan the cohort (or re-read the trace
// directory) and precompute the decision tables. Trace loading is
// strict — a daemon must not come up, or swap to, a partial snapshot.
func snapshotLoader(cfg experiments.Config, traceDir string) func(context.Context) (*experiments.DecisionSet, error) {
	return func(ctx context.Context) (*experiments.DecisionSet, error) {
		plan, _, err := cli.LoadPlan(ctx, cfg, traceDir, gtrace.LoadOptions{Policy: gtrace.Strict})
		if err != nil {
			return nil, err
		}
		return plan.Decisions(ctx)
	}
}

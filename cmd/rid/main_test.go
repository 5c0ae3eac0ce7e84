package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rimarket/internal/cli"
	"rimarket/internal/coltrace"
	"rimarket/internal/experiments"
	"rimarket/internal/gtrace"
	"rimarket/internal/workload"
)

// TestRunUsageErrors pins the exit-code vocabulary at the flag layer:
// command-line misuse is exit 2, runtime failures are exit 1.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown scale", []string{"-scale", "bogus"}, cli.ExitUsage},
		{"unsupported term", []string{"-term", "2"}, cli.ExitUsage},
		{"unknown flag", []string{"-no-such-flag"}, cli.ExitUsage},
		{"bad discount type", []string{"-a", "lots"}, cli.ExitUsage},
		{"missing trace dir", []string{"-tracedir", "/no/such/dir"}, cli.ExitError},
		{"unlistenable addr", []string{"-pergroup", "2", "-addr", "256.256.256.256:0"}, cli.ExitError},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if err == nil {
			t.Errorf("%s: run succeeded, want exit %d", tc.name, tc.want)
			continue
		}
		if got := cli.ExitCode(err); got != tc.want {
			t.Errorf("%s: exit code %d (%v), want %d", tc.name, got, err, tc.want)
		}
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp", err)
	}
}

// offlineSet builds the same snapshot rid serves for
// "-pergroup 2" at test scale, through the offline pipeline.
func offlineSet(t testing.TB) *experiments.DecisionSet {
	t.Helper()
	cfg := experiments.TestScaleConfig()
	cfg.PerGroup = 2
	plan, err := experiments.NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Decisions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestSnapshotFromStore checks that rid serves a directory of .colt
// stores as it serves the usage logs they were converted from: the
// converter groups users by trace length, and the loader puts them
// back in name order, so both snapshots are the same.
func TestSnapshotFromStore(t *testing.T) {
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: 2, Hours: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	logDir, coltDir := t.TempDir(), t.TempDir()
	for _, tr := range traces {
		var b bytes.Buffer
		if err := gtrace.WriteEC2Log(&b, tr); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(logDir, tr.User+".csv"), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, _, err := gtrace.LoadFS(os.DirFS(logDir), gtrace.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cohorts, err := coltrace.GroupTraces(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if len(cohorts) < 2 {
		t.Fatalf("logs grouped into %d cohort, want a ragged directory", len(cohorts))
	}
	if err := coltrace.WriteFile(filepath.Join(coltDir, "cohort"+coltrace.Ext), cohorts...); err != nil {
		t.Fatal(err)
	}
	cfg := experiments.TestScaleConfig()
	fromLogs, err := snapshotLoader(cfg, logDir)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := snapshotLoader(cfg, coltDir)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStore, fromLogs) {
		t.Fatal("snapshot from the .colt store differs from the logs'")
	}
}

// offlineQueries is the bit-identity corpus: request bodies paired
// with the exact bytes the daemon must answer, computed offline.
type offlineQuery struct {
	body []byte
	want []byte
}

func offlineQueries(t testing.TB, set *experiments.DecisionSet) []offlineQuery {
	t.Helper()
	var out []offlineQuery
	hours := []int{0, set.Horizon() / 2, set.Horizon() - 1}
	for ui := 0; ui < set.Users(); ui++ {
		if set.Reserved(ui) == 0 {
			continue
		}
		for _, policy := range set.Policies() {
			q := experiments.Query{User: set.UserName(ui), Policy: policy, Hour: hours[ui%len(hours)]}
			rec, err := set.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, offlineQuery{body: body, want: append(want, '\n')})
		}
	}
	if len(out) == 0 {
		t.Fatal("offline corpus is empty; no user has reserved instances")
	}
	return out
}

// postRecommend issues one evaluation request and returns status and
// raw body bytes.
func postRecommend(base string, body []byte) (int, []byte, error) {
	resp, err := http.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// syncBuffer is a mutex-guarded bytes.Buffer: run's stdout/stderr are
// written from server goroutines while the test polls them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitListening polls out for the startup line and returns the bound
// address; a run error or 30s without the line is fatal.
func waitListening(t *testing.T, out *syncBuffer, errc <-chan error) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s := out.String()
		if i := strings.Index(s, "rid: listening on "); i >= 0 {
			rest := s[i+len("rid: listening on "):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				return rest[:j]
			}
		}
		select {
		case err := <-errc:
			t.Fatalf("run exited before listening: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("no listening line within 30s; stdout: %q", out.String())
	return ""
}

// TestRunServesReloadsAndDrains is the in-process end-to-end test:
// run() with -addr :0, real HTTP queries bit-identical to the offline
// pipeline, a SIGHUP reload that swaps without changing answers, and a
// context cancellation that drains to a nil return.
func TestRunServesReloadsAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pergroup", "2"}, stdout, stderr)
	}()
	base := "http://" + waitListening(t, stdout, errc)

	corpus := offlineQueries(t, offlineSet(t))
	check := func(stage string) {
		t.Helper()
		for _, q := range corpus {
			status, got, err := postRecommend(base, q.body)
			if err != nil {
				t.Fatalf("%s: %s: %v", stage, q.body, err)
			}
			if status != http.StatusOK {
				t.Fatalf("%s: %s: status %d, body %s", stage, q.body, status, got)
			}
			if !bytes.Equal(got, q.want) {
				t.Fatalf("%s: %s: daemon diverges from offline pipeline:\n  got  %s\n  want %s", stage, q.body, got, q.want)
			}
		}
	}
	check("initial snapshot")

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}

	// SIGHUP lands on this process; run's watcher rebuilds and swaps.
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(stderr.String(), "snapshot reloaded") {
		if time.Now().After(deadline) {
			t.Fatalf("no reload within 30s; stderr: %q", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	check("after SIGHUP reload")

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after clean drain = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}

// helperEnv marks the re-exec'ed copy of this test binary that plays
// the rid process in the SIGKILL chaos test.
const helperEnv = "RID_HELPER_PROCESS"

// TestRidHelperProcess is not a test: re-exec'ed with helperEnv set,
// it becomes cmd/rid's main() — SignalContext, run, exit-code mapping
// — so the chaos test below can SIGKILL and restart a real process.
func TestRidHelperProcess(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process for TestKillRestartBitIdentical")
	}
	ctx, stop := cli.SignalContext()
	err := run(ctx, strings.Fields(os.Getenv("RID_HELPER_ARGS")), os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rid:", err)
	}
	os.Exit(cli.ExitCode(err))
}

// startHelper launches the re-exec'ed daemon and returns the running
// command plus its bound address, parsed from the startup line.
func startHelper(t *testing.T, args string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRidHelperProcess$")
	cmd.Env = append(os.Environ(), helperEnv+"=1", "RID_HELPER_ARGS="+args)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "rid: listening on "); ok {
			// Keep draining so the child never blocks on a full pipe.
			go io.Copy(io.Discard, stdout)
			return cmd, addr
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("helper exited without printing a listening line")
	return nil, ""
}

// TestKillRestartBitIdentical is the crash-safety acceptance test:
// SIGKILL a serving rid process mid-load, restart it with the same
// flags, and require every answer — before the kill and after the
// restart — bit-identical to the offline pipeline. The snapshot is a
// pure function of the flags, so an uncontrolled death loses nothing.
func TestKillRestartBitIdentical(t *testing.T) {
	corpus := offlineQueries(t, offlineSet(t))
	const args = "-addr 127.0.0.1:0 -pergroup 2"

	check := func(stage, addr string) {
		t.Helper()
		for _, q := range corpus {
			status, got, err := postRecommend("http://"+addr, q.body)
			if err != nil {
				t.Fatalf("%s: %s: %v", stage, q.body, err)
			}
			if status != http.StatusOK {
				t.Fatalf("%s: %s: status %d, body %s", stage, q.body, status, got)
			}
			if !bytes.Equal(got, q.want) {
				t.Fatalf("%s: %s: diverges from offline pipeline:\n  got  %s\n  want %s", stage, q.body, got, q.want)
			}
		}
	}

	first, addr := startHelper(t, args)
	check("before kill", addr)

	// Put the process under live load, then SIGKILL it mid-flight. The
	// in-flight requests die with their connections — the point is that
	// nothing the process was doing can corrupt what a restart serves.
	stopLoad := make(chan struct{})
	var load sync.WaitGroup
	for w := 0; w < 4; w++ {
		load.Add(1)
		go func(w int) {
			defer load.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				postRecommend("http://"+addr, corpus[(i+w)%len(corpus)].body)
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err := first.Wait()
	close(stopLoad)
	load.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("killed helper Wait = %v, want an ExitError", err)
	}

	second, addr2 := startHelper(t, args)
	check("after restart", addr2)

	// Shut the survivor down the operator's way: one SIGINT, clean
	// drain, exit 0.
	if err := second.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := second.Wait(); err != nil {
		t.Fatalf("helper after SIGINT = %v, want exit 0", err)
	}
}

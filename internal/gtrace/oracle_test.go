package gtrace

// The one-row-at-a-time EC2-log parser and the one-file-at-a-time
// directory loader the production code replaced, kept as oracles: the
// in-place parser must return the same trace or the same error text on
// any input (FuzzReadEC2Log), and the parallel loader the same traces,
// report and error on any faulted directory of logs and cohort stores
// (TestLoadDifferential, TestLoadColtDirMatchesReadFile).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
	"time"

	"rimarket/internal/coltrace"
	"rimarket/internal/faultfs"
	"rimarket/internal/workload"
)

// readEC2LogOracle is the reference parser: a string per line,
// strings.Split and a map per hour.
func readEC2LogOracle(r io.Reader) (workload.Trace, error) {
	sc := bufio.NewScanner(r)
	user := "ec2-log"
	demand := make(map[int]int)
	maxHour := -1
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, "#"):
			if rest, ok := strings.CutPrefix(text, "# user:"); ok {
				if name := strings.TrimSpace(rest); name != "" {
					user = name
				}
			}
			continue
		case text == "hour,instances":
			sawHeader = true
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("%q is not hour,instances", text)}
		}
		hour, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("hour: %w", err)}
		}
		count, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("instances: %w", err)}
		}
		if hour < 0 || count < 0 {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("negative value")}
		}
		if hour > MaxLogHours {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("hour %d beyond the %d-hour limit", hour, MaxLogHours)}
		}
		demand[hour] = count
		if hour > maxHour {
			maxHour = hour
		}
	}
	if err := sc.Err(); err != nil {
		return workload.Trace{}, fmt.Errorf("gtrace: ec2 log: %w", err)
	}
	if maxHour < 0 {
		if sawHeader {
			return workload.Trace{User: user, Demand: nil}, nil
		}
		return workload.Trace{}, ErrNoEvents
	}
	series := make([]int, maxHour+1)
	for hour, count := range demand {
		series[hour] = count
	}
	return workload.Trace{User: user, Demand: series}, nil
}

// readEC2LogAutoOracle is ReadEC2LogAuto over the reference parser.
func readEC2LogAutoOracle(r io.Reader) (workload.Trace, error) {
	rr, err := maybeGunzip(r)
	if err != nil {
		return workload.Trace{}, err
	}
	return readEC2LogOracle(rr)
}

// loadEC2LogFSOracle is the reference directory loader: one file at a
// time in name order, the policy applied as each file is read, a
// cohort store decoded into cohorts and flattened, and the traces
// sorted by user name at the end.
func loadEC2LogFSOracle(fsys fs.FS, opts LoadOptions) ([]workload.Trace, *LoadReport, error) {
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, nil, fmt.Errorf("gtrace: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".csv") || strings.HasSuffix(name, ".csv.gz") || strings.HasSuffix(name, ".colt") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, nil, ErrNoTraces
	}
	sort.Strings(names)

	report := &LoadReport{}
	traces := make([]workload.Trace, 0, len(names))
	owners := make(map[string]string, len(names))
	for _, name := range names {
		var trs []workload.Trace
		var err error
		if strings.HasSuffix(name, ".colt") {
			trs, err = loadStoreOracle(fsys, name)
		} else {
			var tr workload.Trace
			tr, err = loadOneLogOracle(fsys, name)
			trs = []workload.Trace{tr}
		}
		if err != nil {
			if opts.Policy == BestEffort {
				report.Skipped = append(report.Skipped, SkippedFile{File: name, Err: err})
				if opts.FailureBudget > 0 && len(report.Skipped) > opts.FailureBudget {
					return nil, report, fmt.Errorf("gtrace: failure budget of %d exceeded: %w", opts.FailureBudget, err)
				}
				continue
			}
			return nil, report, err
		}
		for _, tr := range trs {
			if prev, dup := owners[tr.User]; dup {
				return nil, report, &DuplicateUserError{User: tr.User, Files: [2]string{prev, name}}
			}
			owners[tr.User] = name
		}
		report.Loaded = append(report.Loaded, name)
		traces = append(traces, trs...)
	}
	if len(traces) == 0 {
		return nil, report, fmt.Errorf("all %d trace files skipped: %w", len(names), ErrNoTraces)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].User < traces[j].User })
	return traces, report, nil
}

// loadStoreOracle decodes a cohort store into cohorts, then flattens
// their columns into traces.
func loadStoreOracle(fsys fs.FS, name string) ([]workload.Trace, error) {
	data, err := fs.ReadFile(fsys, name)
	if err != nil {
		return nil, &ParseError{File: name, Err: err}
	}
	cs, _, err := coltrace.DecodeAll(data)
	if err != nil {
		return nil, &ParseError{File: name, Err: err}
	}
	var trs []workload.Trace
	for _, c := range cs {
		trs = append(trs, c.Traces()...)
	}
	return trs, nil
}

func loadOneLogOracle(fsys fs.FS, name string) (workload.Trace, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return workload.Trace{}, &ParseError{File: name, Err: err}
	}
	tr, err := readEC2LogAutoOracle(f)
	closeErr := f.Close()
	if err == nil {
		err = closeErr
	}
	if err != nil {
		var perr *ParseError
		if errors.As(err, &perr) && perr.File == "" {
			perr.File = name
			return workload.Trace{}, err
		}
		return workload.Trace{}, &ParseError{File: name, Err: err}
	}
	if tr.User == "ec2-log" {
		tr.User = strings.TrimSuffix(strings.TrimSuffix(name, ".gz"), ".csv")
	}
	return tr, nil
}

// sameParse reports how two parses of one input differ, or "" when
// they return the same trace or the same error text.
func sameParse(got workload.Trace, gotErr error, want workload.Trace, wantErr error) string {
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
		}
	case got.User != want.User:
		return fmt.Sprintf("user %q, oracle %q", got.User, want.User)
	case len(got.Demand) != len(want.Demand) || (got.Demand == nil) != (want.Demand == nil):
		return fmt.Sprintf("%d hours (nil %v), oracle %d (nil %v)", len(got.Demand), got.Demand == nil, len(want.Demand), want.Demand == nil)
	default:
		for h := range got.Demand {
			if got.Demand[h] != want.Demand[h] {
				return fmt.Sprintf("hour %d: %d, oracle %d", h, got.Demand[h], want.Demand[h])
			}
		}
	}
	return ""
}

// sameLoad reports how two directory loads differ, or "" when their
// traces, reports (skip reasons by text) and errors (by text) agree.
func sameLoad(got []workload.Trace, gotRep *LoadReport, gotErr error, want []workload.Trace, wantRep *LoadReport, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, serial %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("traces differ: %d vs serial %d", len(got), len(want))
	}
	if (gotRep == nil) != (wantRep == nil) {
		return fmt.Sprintf("report %v, serial %v", gotRep, wantRep)
	}
	if gotRep == nil {
		return ""
	}
	if !reflect.DeepEqual(gotRep.Loaded, wantRep.Loaded) {
		return fmt.Sprintf("loaded %v, serial %v", gotRep.Loaded, wantRep.Loaded)
	}
	if len(gotRep.Skipped) != len(wantRep.Skipped) {
		return fmt.Sprintf("skipped %v, serial %v", gotRep.Skipped, wantRep.Skipped)
	}
	for i, sk := range gotRep.Skipped {
		if w := wantRep.Skipped[i]; sk.File != w.File || sk.Err.Error() != w.Err.Error() {
			return fmt.Sprintf("skip %d: %s: %v, serial %s: %v", i, sk.File, sk.Err, w.File, w.Err)
		}
	}
	return ""
}

// differentialCorpus is a directory of plain and gzipped usage logs,
// some with "# user:" headers and some named after their file, with
// rows long enough that a half-served file is cut mid-row.
func differentialCorpus(t *testing.T) fstest.MapFS {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m := fstest.MapFS{}
	for i := 0; i < 12; i++ {
		d := make([]int, 50+rng.Intn(150))
		for h := range d {
			d[h] = rng.Intn(40)
		}
		tr := workload.Trace{User: fmt.Sprintf("app-%02d", i), Demand: d}
		var b strings.Builder
		if err := WriteEC2Log(&b, tr); err != nil {
			t.Fatal(err)
		}
		data := b.String()
		if i%3 == 0 {
			data = strings.TrimPrefix(data, "# user: "+tr.User+"\n")
		}
		if i%2 == 0 {
			m[tr.User+".csv.gz"] = &fstest.MapFile{Data: gzipped(t, data)}
		} else {
			m[tr.User+".csv"] = &fstest.MapFile{Data: []byte(data)}
		}
	}
	return m
}

// storeBytes encodes one cohort store holding a record per user list,
// the records of different lengths.
func storeBytes(t testing.TB, records ...[]string) []byte {
	t.Helper()
	var buf []byte
	for r, users := range records {
		trs := make([]workload.Trace, len(users))
		for u, user := range users {
			d := make([]int, 60+40*r)
			for h := range d {
				d[h] = (h*7 + u*3 + r) % 11
			}
			trs[u] = workload.Trace{User: user, Demand: d}
		}
		c, err := coltrace.FromTraces(trs)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = coltrace.AppendCohort(buf, c); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestLoadDifferential pins the parallel directory loader to the serial
// reference over faultfs: every fault kind at several seeded
// placements, a plain log beside its gzipped twin, a colliding
// "# user:" header, rows at the scanner's token limit, a cohort store
// beside the logs (clean, under every fault kind, and naming a log's
// user), both policies and failure budgets 0, 1 and 2, at
// GOMAXPROCS 1 and 4. Run under -race it also checks the decode
// workers' hand-off.
func TestLoadDifferential(t *testing.T) {
	base := differentialCorpus(t)
	kinds := []faultfs.Kind{faultfs.KindOpenError, faultfs.KindReadError, faultfs.KindTruncate, faultfs.KindCorruptRow, faultfs.KindStall}
	type scenario struct {
		name string
		fsys fs.FS
	}
	var scenarios []scenario
	faulted := func(inner fs.FS, seed int64, n int) fs.FS {
		ffs := faultfs.New(inner)
		ffs.SetSleep(func(time.Duration) {})
		if _, err := ffs.InjectN(seed, n, kinds...); err != nil {
			t.Fatal(err)
		}
		return ffs
	}
	scenarios = append(scenarios, scenario{"clean", base})
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{1, 3, 5} {
			scenarios = append(scenarios, scenario{fmt.Sprintf("faults=%d/seed=%d", n, seed), faulted(base, seed, n)})
		}
	}
	twin := fstest.MapFS{}
	for k, v := range base {
		twin[k] = v
	}
	twin["app-04.csv"] = &fstest.MapFile{Data: []byte("hour,instances\n0,5\n")}
	scenarios = append(scenarios, scenario{"twin", twin}, scenario{"twin/faults", faulted(twin, 9, 3)})
	collide := fstest.MapFS{}
	for k, v := range base {
		collide[k] = v
	}
	collide["zz.csv"] = &fstest.MapFile{Data: []byte("# user: app-01\nhour,instances\n0,2\n")}
	scenarios = append(scenarios, scenario{"collide", collide}, scenario{"collide/faults", faulted(collide, 11, 4)})
	// A cohort store beside the logs: its users sort in among theirs,
	// and a fault of every kind lands on its bytes.
	mixed := fstest.MapFS{}
	for k, v := range base {
		mixed[k] = v
	}
	mixed["store.colt"] = &fstest.MapFile{Data: storeBytes(t, []string{"aaa", "app-03a", "zzz"}, []string{"app-10x", "app-99"})}
	scenarios = append(scenarios, scenario{"store", mixed})
	for _, kind := range kinds {
		ffs := faultfs.New(mixed)
		ffs.SetSleep(func(time.Duration) {})
		ffs.Inject("store.colt", kind)
		scenarios = append(scenarios, scenario{"store/" + kind.String(), ffs})
	}
	for seed := int64(1); seed <= 3; seed++ {
		scenarios = append(scenarios, scenario{fmt.Sprintf("store/faults=4/seed=%d", seed), faulted(mixed, seed, 4)})
	}
	// A store whose user is also a log's: a duplicate across formats.
	storeCollide := fstest.MapFS{}
	for k, v := range base {
		storeCollide[k] = v
	}
	storeCollide["store.colt"] = &fstest.MapFile{Data: storeBytes(t, []string{"app-05", "app-50"})}
	scenarios = append(scenarios, scenario{"store/collide", storeCollide}, scenario{"store/collide/faults", faulted(storeCollide, 13, 3)})
	// Rows at bufio's 64 KB token limit: the loader's preallocated
	// scanner buffer must accept and refuse exactly the lines the
	// default, growing one does.
	long := fstest.MapFS{}
	for k, v := range base {
		long[k] = v
	}
	long["edge-fits.csv"] = &fstest.MapFile{Data: []byte("hour,instances\n0," + strings.Repeat(" ", 65535-3) + "1\n")}
	long["edge-over.csv"] = &fstest.MapFile{Data: []byte("hour,instances\n0," + strings.Repeat(" ", 65536-3) + "1\n")}
	scenarios = append(scenarios, scenario{"long-rows", long})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, sc := range scenarios {
			for _, policy := range []ErrorPolicy{Strict, BestEffort} {
				for budget := 0; budget <= 2; budget++ {
					opts := LoadOptions{Policy: policy, FailureBudget: budget}
					traces, rep, err := LoadFS(sc.fsys, opts)
					wantTraces, wantRep, wantErr := loadEC2LogFSOracle(sc.fsys, opts)
					if d := sameLoad(traces, rep, err, wantTraces, wantRep, wantErr); d != "" {
						t.Errorf("GOMAXPROCS=%d %s %v budget=%d: %s", procs, sc.name, policy, budget, d)
					}
				}
			}
		}
	}
}

// panicFS panics on opening one file, standing in for a decoder bug.
type panicFS struct {
	fstest.MapFS
	bad string
}

func (p panicFS) Open(name string) (fs.File, error) {
	if name == p.bad {
		panic("decoder bug in " + name)
	}
	return p.MapFS.Open(name)
}

// TestLoadPanicReachesCaller checks that a panic in a decode worker is
// re-raised on the loader's caller, as a serial load would raise it.
func TestLoadPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fsys := panicFS{MapFS: differentialCorpus(t), bad: "app-05.csv"}
	defer func() {
		if p := recover(); p != "decoder bug in app-05.csv" {
			t.Fatalf("recovered %v, want the decoder's panic", p)
		}
	}()
	LoadFS(fsys, LoadOptions{Policy: BestEffort})
	t.Fatal("load returned instead of re-raising the panic")
}

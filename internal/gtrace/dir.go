package gtrace

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rimarket/internal/coltrace"
	"rimarket/internal/workload"
)

// ErrorPolicy selects how the directory loader reacts to a file that
// cannot be read or parsed.
type ErrorPolicy int

const (
	// Strict fails the whole load on the first unreadable or malformed
	// file — the right posture for curated datasets.
	Strict ErrorPolicy = iota
	// BestEffort skips unreadable, corrupt or truncated files (up to
	// LoadOptions.FailureBudget) and records them in the LoadReport, so
	// one bad file in a directory of real usage logs degrades the run
	// per-file rather than per-run.
	BestEffort
)

// String renders the policy as its riexp flag spelling.
func (p ErrorPolicy) String() string {
	if p == BestEffort {
		return "best-effort"
	}
	return "strict"
}

// LoadOptions configures a directory load.
type LoadOptions struct {
	// Policy is the error policy; the zero value is Strict.
	Policy ErrorPolicy
	// FailureBudget caps how many files BestEffort may skip before the
	// load fails anyway; 0 or negative means unlimited. Ignored under
	// Strict.
	FailureBudget int
}

// SkippedFile records one file a best-effort load gave up on.
type SkippedFile struct {
	// File is the file name relative to the loaded directory.
	File string
	// Err is why it was skipped.
	Err error
}

// LoadReport is the structured outcome of a directory load: which
// files produced traces and which were skipped, with reasons. Callers
// surface Skipped to the user (riexp prints a partial-ingestion
// warning and exits 3) instead of silently dropping data.
type LoadReport struct {
	// Loaded names the files that produced traces, in load order.
	Loaded []string
	// Skipped lists the files a best-effort load gave up on, in
	// directory order; always empty under Strict.
	Skipped []SkippedFile
}

// Partial reports whether any file was skipped.
func (r *LoadReport) Partial() bool { return r != nil && len(r.Skipped) > 0 }

// LoadFS reads every trace file in the root of fsys — EC2 usage logs
// (.csv, .csv.gz) and columnar cohort stores (.colt), the decoder
// picked by each file's suffix — into demand traces sorted by user
// name. The order is the users', not the files': a plan assigns each
// user's purchasing behavior and seed by its index, so how the users
// were stored must not change it. Taking an fs.FS keeps the
// degradation paths testable: the faultfs package wraps a real or
// in-memory filesystem with injected open errors, short reads and
// corrupt rows, and this loader must turn each of them into a Strict
// failure or a BestEffort skip — never a crash or a silent half-read
// trace.
//
// Directory-level problems are never skippable: an unreadable root
// returns its error, a root with no trace files returns ErrNoTraces,
// and two files (or two records of one store) naming the same user
// return *DuplicateUserError under either policy. Per-file failures
// are wrapped in *ParseError naming the file (and row, when the log
// parser got that far). The report is returned even when err is
// non-nil, once the directory was read, so a load that fails midway
// still tells which files had loaded cleanly.
//
// Files are decoded on GOMAXPROCS workers; the policy is applied
// afterwards in file-name order, so the traces, the report and the
// error are those of a one-file-at-a-time load.
func LoadFS(fsys fs.FS, opts LoadOptions) ([]workload.Trace, *LoadReport, error) {
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, nil, fmt.Errorf("gtrace: %w", err)
	}
	names := fileNames(entries, ".csv", ".csv.gz", coltrace.Ext)
	if len(names) == 0 {
		return nil, nil, ErrNoTraces
	}
	// A log decodes into its own slot of logs, and decoded[i] views
	// it, so a directory of logs costs no allocation per file.
	logs := make([]workload.Trace, len(names))
	decoded := make([][]workload.Trace, len(names))
	errs := decodeFiles(len(names), opts.Policy, func() func(int) error {
		var s *logScratch // made at the worker's first log: stores need none
		return func(i int) (err error) {
			if strings.HasSuffix(names[i], coltrace.Ext) {
				decoded[i], err = loadStore(fsys, names[i])
				return err
			}
			if s == nil {
				s = &logScratch{line: make([]byte, bufio.MaxScanTokenSize)}
			}
			logs[i], err = s.loadOne(fsys, names[i])
			decoded[i] = logs[i : i+1 : i+1]
			return err
		}
	})
	traces := make([]workload.Trace, 0, len(names))
	owners := make(map[string]string, len(names)) // user -> file that claimed it
	report, err := applyPolicy(names, errs, opts, func(i int) error {
		for _, tr := range decoded[i] {
			if prev, dup := owners[tr.User]; dup {
				return &DuplicateUserError{User: tr.User, Files: [2]string{prev, names[i]}}
			}
			owners[tr.User] = names[i]
		}
		traces = append(traces, decoded[i]...)
		return nil
	})
	if err != nil {
		return nil, report, err
	}
	if len(traces) == 0 {
		return nil, report, fmt.Errorf("all %d trace files skipped: %w", len(names), ErrNoTraces)
	}
	slices.SortFunc(traces, func(a, b workload.Trace) int { return strings.Compare(a.User, b.User) })
	return traces, report, nil
}

// LoadEC2LogFS is LoadFS, kept only for the perfbench harness, which
// calls it by this name.
func LoadEC2LogFS(fsys fs.FS, opts LoadOptions) ([]workload.Trace, *LoadReport, error) {
	return LoadFS(fsys, opts)
}

// fileNames returns the sorted names of the regular entries with one
// of the given suffixes.
func fileNames(entries []fs.DirEntry, suffixes ...string) []string {
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		for _, suf := range suffixes {
			if strings.HasSuffix(e.Name(), suf) {
				names = append(names, e.Name())
				break
			}
		}
	}
	sort.Strings(names)
	return names
}

// decodeFiles calls decode(i) for every file index i in [0, n) on up to
// GOMAXPROCS workers that claim indices from one shared cursor, and
// returns each index's error. newDecoder is called once per worker, so
// each decoder can own its buffers. Decoding order is free; what the
// loaders report is not, so they apply the error policy afterwards, in
// name order (applyPolicy). Under Strict the workers stop claiming
// after the first failure: every index below a claimed one was claimed
// too, so every file up to the first failure in name order is decoded,
// which is as far as a strict load reads. A decoder panic stops the
// claiming and is re-raised on the caller's goroutine once every
// worker has returned, the lowest-index one if several panicked.
func decodeFiles(n int, policy ErrorPolicy, newDecoder func() func(int) error) []error {
	errs := make([]error, n)
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex // guards panicAt and panicked
		panicAt  = n
		panicked any
	)
	run := func(decode func(int) error, i int) {
		defer func() {
			if p := recover(); p != nil {
				stop.Store(true)
				mu.Lock()
				if i < panicAt {
					panicAt, panicked = i, p
				}
				mu.Unlock()
			}
		}()
		// Each index has one claimant, so each slot has one writer;
		// wg.Wait orders the writes before the caller's reads.
		if errs[i] = decode(i); errs[i] != nil && policy == Strict {
			stop.Store(true)
		}
	}
	work := func() {
		defer wg.Done()
		decode := newDecoder()
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			run(decode, i)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	wg.Add(workers)
	for range workers - 1 {
		go work()
	}
	work() // the caller decodes too
	wg.Wait()
	if panicAt < n {
		//rilint:allow nopanic -- re-raises a decoder's panic on the caller's goroutine, where a serial load would have raised it
		panic(panicked)
	}
	return errs
}

// applyPolicy walks a directory load's per-file decode errors in name
// order and applies opts: a failed file fails the load under Strict
// and is skipped under BestEffort, until more than FailureBudget files
// are skipped. accept takes each decoded file in order; its error
// fails the load under either policy. The report lists what was
// loaded and skipped so far, also on failure.
func applyPolicy(names []string, errs []error, opts LoadOptions, accept func(i int) error) (*LoadReport, error) {
	report := &LoadReport{}
	for i, name := range names {
		if err := errs[i]; err != nil {
			if opts.Policy == BestEffort {
				report.Skipped = append(report.Skipped, SkippedFile{File: name, Err: err})
				if opts.FailureBudget > 0 && len(report.Skipped) > opts.FailureBudget {
					return report, fmt.Errorf("gtrace: failure budget of %d exceeded: %w", opts.FailureBudget, err)
				}
				continue
			}
			return report, err
		}
		if err := accept(i); err != nil {
			return report, err
		}
		report.Loaded = append(report.Loaded, name)
	}
	return report, nil
}

// loadStore reads one cohort store through fsys and decodes it into
// one trace per user, wrapping any failure in a *ParseError naming the
// file. A partial store is a failure: none of its traces are kept.
func loadStore(fsys fs.FS, name string) ([]workload.Trace, error) {
	data, err := fs.ReadFile(fsys, name)
	if err == nil {
		var trs []workload.Trace
		if trs, err = coltrace.DecodeTraces(data); err == nil {
			return trs, nil
		}
	}
	return nil, &ParseError{File: name, Err: err}
}

// loadOne reads one EC2 log file on s's buffers, wrapping any failure —
// open, read, gunzip or parse — in a *ParseError naming the file.
func (s *logScratch) loadOne(fsys fs.FS, name string) (workload.Trace, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return workload.Trace{}, &ParseError{File: name, Err: err}
	}
	tr, err := s.readAuto(f)
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
		// Files without a "# user:" header get named after the file.
		tr.User = strings.TrimSuffix(strings.TrimSuffix(name, ".gz"), ".csv")
	}
	return tr, nil
}

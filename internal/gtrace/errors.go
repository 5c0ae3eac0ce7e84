package gtrace

import (
	"errors"
	"fmt"
)

// ErrNoTraces is returned by LoadFS when a directory holds no .csv,
// .csv.gz or .colt trace files, or when best-effort loading
// skipped every file it found. Callers branch with errors.Is instead of
// matching the message.
var ErrNoTraces = errors.New("gtrace: no .csv, .csv.gz or .colt trace files")

// ParseError locates a failure inside one trace file. Every per-file
// load failure the directory loader sees is wrapped in a ParseError so
// callers — the best-effort policy above all — can branch with
// errors.As and report the offending file without string matching.
type ParseError struct {
	// File is the file the failure occurred in; empty when parsing a
	// bare stream with no file identity.
	File string
	// Row is the 1-based line of the malformed row; 0 when the failure
	// is not row-specific (unreadable file, truncated gzip stream, ...).
	Row int
	// Err is the underlying cause.
	Err error
}

func (e *ParseError) Error() string {
	switch {
	case e.File != "" && e.Row > 0:
		return fmt.Sprintf("gtrace: %s: line %d: %v", e.File, e.Row, e.Err)
	case e.File != "":
		return fmt.Sprintf("gtrace: %s: %v", e.File, e.Err)
	case e.Row > 0:
		return fmt.Sprintf("gtrace: ec2 log line %d: %v", e.Row, e.Err)
	default:
		return fmt.Sprintf("gtrace: %v", e.Err)
	}
}

func (e *ParseError) Unwrap() error { return e.Err }

// DuplicateUserError reports two trace files resolving to the same
// user name — a plain and a compressed copy of one log (x.csv beside
// x.csv.gz), a "# user:" header colliding with another file's name, a
// cohort store beside the logs it was converted from, or two records
// of one store. Loading both would silently double one user's demand
// in the cohort, so the loader refuses in every error-policy mode.
type DuplicateUserError struct {
	// User is the colliding trace name.
	User string
	// Files are the two files that both claim it, in directory order
	// (the same file twice for two records of one store).
	Files [2]string
}

func (e *DuplicateUserError) Error() string {
	return fmt.Sprintf("gtrace: duplicate trace user %q: %s and %s both resolve to it",
		e.User, e.Files[0], e.Files[1])
}

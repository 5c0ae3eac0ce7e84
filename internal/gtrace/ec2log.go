package gtrace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"rimarket/internal/workload"
)

// The EC2 usage-log format stands in for the 36 per-application EC2
// usage files the paper cites (the UW cloudmeasure datasets): one CSV
// row per hour with the hour index and the number of instances in use.
//
//	# user: <name>
//	hour,instances
//	0,12
//	1,14
//	...
//
// Comment lines start with '#'; a "# user:" comment names the trace.

// MaxLogHours caps the hour index a usage-log row may carry. The
// reconstructed series is dense (one slot per hour up to the maximum
// index seen), so without a cap one malformed or hostile row like
// "99999999999,1" would make the parser attempt a terabyte-scale
// allocation. A century of hours is far beyond any reservation horizon.
const MaxLogHours = 100 * 365 * 24

// ReadEC2Log parses one EC2 usage-log stream into a demand trace.
// Hours may be sparse and out of order; missing hours have zero demand,
// and a later row for an hour overwrites an earlier one. Hour indices
// above MaxLogHours are rejected. Malformed rows surface as *ParseError
// carrying the 1-based line number.
func ReadEC2Log(r io.Reader) (workload.Trace, error) {
	var s logScratch
	return s.read(r)
}

// logScratch is one decoder's reusable working memory: the scanner's
// line buffer, the buffered reader gzip detection peeks through, and
// the dense hour series a log is parsed into. A directory load gives
// each decode worker its own, so a file costs one allocation for its
// series instead of a buffer, a string per line and a map entry per
// hour.
type logScratch struct {
	// line, when set, is the scanner's buffer. A directory load sets
	// it to the full token limit, so a file is read in a few large
	// reads; a one-off parse leaves it nil and the scanner starts small.
	// Either way the longest accepted line is bufio.MaxScanTokenSize.
	line  []byte
	br    *bufio.Reader
	hours []int // dense series under construction; zero beyond used
	used  int   // 1 + the largest hour the current or last read wrote
}

// fastDigits is how many decimal digits always fit an int, so a field
// of at most that many ASCII digits needs no overflow check.
const fastDigits = strconv.IntSize * 18 / 64

// atoi is strconv.Atoi over a byte field. Plain digit runs, the shape
// of every well-formed row, are converted in place; anything else
// (signs, stray bytes, overlong runs) goes through strconv.Atoi, so the
// value and the error text are Atoi's own.
func atoi(b []byte) (int, error) {
	if len(b) == 0 || len(b) > fastDigits {
		return strconv.Atoi(string(b))
	}
	v := 0
	for _, c := range b {
		c -= '0'
		if c > 9 {
			return strconv.Atoi(string(b))
		}
		v = v*10 + int(c)
	}
	return v, nil
}

// read parses one usage-log stream as ReadEC2Log does, on s's buffers.
// Each line is parsed in place from the scanner's bytes; a row's hour
// lands in a dense slice that grows by doubling (capped at the
// MaxLogHours bound), and the trace gets an exact-length copy of it.
func (s *logScratch) read(r io.Reader) (workload.Trace, error) {
	clear(s.hours[:s.used])
	s.used = 0
	sc := bufio.NewScanner(r)
	if s.line != nil {
		sc.Buffer(s.line, bufio.MaxScanTokenSize)
	}
	user := "ec2-log"
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		switch {
		case len(text) == 0:
			continue
		case text[0] == '#':
			if rest, ok := bytes.CutPrefix(text, []byte("# user:")); ok {
				if name := bytes.TrimSpace(rest); len(name) > 0 {
					user = string(name)
				}
			}
			continue
		case string(text) == "hour,instances":
			sawHeader = true
			continue
		}
		comma := bytes.IndexByte(text, ',')
		if comma < 0 || bytes.IndexByte(text[comma+1:], ',') >= 0 {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("%q is not hour,instances", text)}
		}
		hour, err := atoi(bytes.TrimSpace(text[:comma]))
		if err != nil {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("hour: %w", err)}
		}
		count, err := atoi(bytes.TrimSpace(text[comma+1:]))
		if err != nil {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("instances: %w", err)}
		}
		if hour < 0 || count < 0 {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("negative value")}
		}
		if hour > MaxLogHours {
			return workload.Trace{}, &ParseError{Row: line, Err: fmt.Errorf("hour %d beyond the %d-hour limit", hour, MaxLogHours)}
		}
		if hour >= len(s.hours) {
			grown := make([]int, min(max(hour+1, 2*len(s.hours), 1024), MaxLogHours+1))
			copy(grown, s.hours[:s.used])
			s.hours = grown
		}
		s.hours[hour] = count
		s.used = max(s.used, hour+1)
	}
	if err := sc.Err(); err != nil {
		return workload.Trace{}, fmt.Errorf("gtrace: ec2 log: %w", err)
	}
	if s.used == 0 {
		if sawHeader {
			return workload.Trace{User: user, Demand: nil}, nil
		}
		return workload.Trace{}, ErrNoEvents
	}
	series := make([]int, s.used)
	copy(series, s.hours)
	return workload.Trace{User: user, Demand: series}, nil
}

// WriteEC2Log writes a demand trace in the EC2 usage-log format.
func WriteEC2Log(w io.Writer, tr workload.Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# user: %s\n", tr.User)
	fmt.Fprintln(bw, "hour,instances")
	cw := csv.NewWriter(bw)
	for hour, count := range tr.Demand {
		if count == 0 {
			continue // sparse encoding
		}
		rec := []string{strconv.Itoa(hour), strconv.Itoa(count)}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("gtrace: ec2 log write: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("gtrace: ec2 log flush: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("gtrace: ec2 log flush: %w", err)
	}
	return nil
}

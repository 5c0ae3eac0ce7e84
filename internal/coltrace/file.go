package coltrace

import (
	"errors"
	"fmt"
	"math"
	"os"

	"rimarket/internal/workload"
)

// FromTraces builds a cohort from equal-length traces. Converters that
// accept ragged inputs (EC2 usage logs) must pad or clip before
// encoding, so the padding decision stays visible at the call site
// rather than silently inside the format.
func FromTraces(traces []workload.Trace) (*Cohort, error) {
	if len(traces) == 0 {
		return nil, errors.New("coltrace: no traces to encode")
	}
	hours := len(traces[0].Demand)
	for _, tr := range traces[1:] {
		if len(tr.Demand) != hours {
			return nil, fmt.Errorf("coltrace: trace %s has %d hours, cohort has %d (pad or clip before encoding)",
				tr.User, len(tr.Demand), hours)
		}
	}
	c := &Cohort{
		Users:  make([]string, len(traces)),
		Hours:  hours,
		Demand: make([]int32, len(traces)*hours),
	}
	for u, tr := range traces {
		c.Users[u] = tr.User
		for t, d := range tr.Demand {
			if d < 0 || d > math.MaxInt32 {
				return nil, fmt.Errorf("coltrace: user %s: demand %d at hour %d outside int32", tr.User, d, t)
			}
			c.Demand[t*len(traces)+u] = int32(d)
		}
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// GroupTraces partitions possibly-ragged traces into rectangular
// cohorts, one per distinct trace length in first-appearance order,
// preserving trace order within each cohort. It is the converter's
// padding-free answer to ragged EC2-log directories: nothing is
// clipped or zero-filled, the store just carries one record per
// length, and DecodeTraces flattens them back in the same grouping.
func GroupTraces(traces []workload.Trace) ([]*Cohort, error) {
	if len(traces) == 0 {
		return nil, errors.New("coltrace: no traces to encode")
	}
	order := make([]int, 0, 4)
	byLen := make(map[int][]workload.Trace)
	for _, tr := range traces {
		n := len(tr.Demand)
		if _, ok := byLen[n]; !ok {
			order = append(order, n)
		}
		byLen[n] = append(byLen[n], tr)
	}
	out := make([]*Cohort, 0, len(order))
	for _, n := range order {
		c, err := FromTraces(byLen[n])
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Traces materializes the cohort back into row-major per-user traces,
// in column order.
func (c *Cohort) Traces() []workload.Trace {
	out := make([]workload.Trace, len(c.Users))
	for u, name := range c.Users {
		d := make([]int, c.Hours)
		for t := range d {
			d[t] = int(c.Demand[t*len(c.Users)+u])
		}
		out[u] = workload.Trace{User: name, Demand: d}
	}
	return out
}

// WriteFile encodes the cohorts as one framed store at path.
func WriteFile(path string, cohorts ...*Cohort) error {
	var buf []byte
	var err error
	for _, c := range cohorts {
		if buf, err = AppendCohort(buf, c); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("coltrace: write store: %w", err)
	}
	return nil
}

// ReadFile decodes every record of the store at path. Unlike the
// resume-oriented DecodeAll, a partial store is an error here — the
// valid prefix is still returned so callers can report what survived,
// but err is non-nil whenever any byte of the file failed to decode.
func ReadFile(path string) ([]*Cohort, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("coltrace: read store: %w", err)
	}
	return decodeStrict(data, path)
}

// DecodeTraces decodes every record of a store's bytes straight into
// one demand trace per user: the traces of ReadFile's cohorts
// (Cohort.Traces, record after record), in the same order, without
// materializing the int32 columns, so a load holds only the store's
// bytes and the traces. It does not check for a user named by two
// records; a caller merging stores (gtrace.LoadFS) checks the merged
// list. As with ReadFile, a partial
// store is an error returned with its valid prefix's traces.
func DecodeTraces(data []byte) ([]workload.Trace, error) {
	var out []workload.Trace
	_, err := scan(data, func(b []byte) (int, error) {
		trs, n, err := decodeTraces(b)
		out = append(out, trs...)
		return n, err
	})
	return out, err
}

func decodeStrict(data []byte, path string) ([]*Cohort, error) {
	cs, _, err := DecodeAll(data)
	return cs, withPath(err, path)
}

// withPath records path in a *CohortError.
func withPath(err error, path string) error {
	var ce *CohortError
	if errors.As(err, &ce) {
		ce.Path = path
	}
	return err
}

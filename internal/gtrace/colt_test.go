package gtrace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rimarket/internal/coltrace"
	"rimarket/internal/workload"
)

// TestLoadColtDirMatchesReadFile pins LoadFS on directories of cohort
// stores, which it decodes straight into traces, to the serial oracle,
// which decodes each store into cohorts and flattens them: the same
// traces in the same order, the same report and the same error text,
// under both error policies.
func TestLoadColtDirMatchesReadFile(t *testing.T) {
	cohort := func(newRes bool, trs ...workload.Trace) *coltrace.Cohort {
		c, err := coltrace.FromTraces(trs)
		if err != nil {
			t.Fatal(err)
		}
		if newRes {
			c.NewRes = make([]int32, len(c.Demand))
			c.NewRes[len(c.NewRes)-1] = 2
		}
		return c
	}
	tr := func(user string, demand ...int) workload.Trace { return workload.Trace{User: user, Demand: demand} }
	wide := cohort(false, tr("u1", 0, 1, 2, 3), tr("u2", 9, 8, 7, 6), tr("u3", 5, 0, 5, 0))
	short := cohort(true, tr("u4", 4, 4), tr("u5", 1, 0))
	single := cohort(false, tr("u6", 7, 7, 7, 0, 1))
	dup := cohort(false, tr("u2", 1))

	type store struct {
		name    string
		cohorts []*coltrace.Cohort
		raw     string // written instead when cohorts is nil
	}
	cases := []struct {
		name    string
		stores  []store
		wantErr bool // under Strict
	}{
		{name: "ragged records with reservations", stores: []store{
			{name: "b.colt", cohorts: []*coltrace.Cohort{single}},
			{name: "a.colt", cohorts: []*coltrace.Cohort{wide, short}},
			{name: "notes.txt", raw: "not a store"},
		}},
		{name: "empty store", stores: []store{
			{name: "a.colt", cohorts: []*coltrace.Cohort{short}},
			{name: "e.colt", raw: ""},
		}},
		{name: "only an empty store", wantErr: true, stores: []store{
			{name: "a.colt", raw: ""},
		}},
		{name: "duplicate across stores", wantErr: true, stores: []store{
			{name: "a.colt", cohorts: []*coltrace.Cohort{wide}},
			{name: "c.colt", cohorts: []*coltrace.Cohort{dup}},
		}},
		{name: "duplicate across records", wantErr: true, stores: []store{
			{name: "a.colt", cohorts: []*coltrace.Cohort{wide, dup}},
		}},
		{name: "corrupt store", wantErr: true, stores: []store{
			{name: "a.colt", cohorts: []*coltrace.Cohort{wide}},
			{name: "bad.colt", raw: "RICTgarbage"},
			{name: "c.colt", cohorts: []*coltrace.Cohort{single}},
		}},
	}
	for _, c := range cases {
		dir := t.TempDir()
		for _, s := range c.stores {
			path := filepath.Join(dir, s.name)
			if s.cohorts == nil {
				if err := os.WriteFile(path, []byte(s.raw), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if err := coltrace.WriteFile(path, s.cohorts...); err != nil {
				t.Fatal(err)
			}
		}
		for _, policy := range []ErrorPolicy{Strict, BestEffort} {
			t.Run(c.name+"/"+strings.ToLower(policy.String()), func(t *testing.T) {
				opts := LoadOptions{Policy: policy}
				got, rep, err := LoadFS(os.DirFS(dir), opts)
				want, wantRep, wantErr := loadEC2LogFSOracle(os.DirFS(dir), opts)
				if d := sameLoad(got, rep, err, want, wantRep, wantErr); d != "" {
					t.Fatal(d)
				}
				if policy == Strict && (err != nil) != c.wantErr {
					t.Fatalf("strict load err = %v, want error %v", err, c.wantErr)
				}
			})
		}
	}
}

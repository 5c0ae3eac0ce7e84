package coltrace

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/fstest"

	"rimarket/internal/faultfs"
	"rimarket/internal/workload"
)

func crc32Of(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

func writeBytes(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }

func testCohort(tb testing.TB) *Cohort {
	tb.Helper()
	c, err := FromTraces([]workload.Trace{
		{User: "user-a", Demand: []int{0, 1, 2, 3}},
		{User: "user-b", Demand: []int{3, 2, 1, 0}},
		{User: "user-c", Demand: []int{5, 5, 5, 5}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func encode(tb testing.TB, cohorts ...*Cohort) []byte {
	tb.Helper()
	var buf []byte
	var err error
	for _, c := range cohorts {
		if buf, err = AppendCohort(buf, c); err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	c := testCohort(t)
	c.NewRes = make([]int32, len(c.Demand))
	c.NewRes[0] = 2 // user-a reserves 2 at hour 0
	c.NewRes[1*3+1] = 1

	buf := encode(t, c)
	got, n, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(buf)) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], c) {
		t.Fatalf("decoded cohort differs:\n got %+v\nwant %+v", got[0], c)
	}
	reenc := encode(t, got[0])
	if string(reenc) != string(buf) {
		t.Fatal("re-encoded bytes differ from original encoding")
	}
}

func TestHourMajorLayout(t *testing.T) {
	c := testCohort(t)
	if got := c.Demand[2*len(c.Users)+1]; got != 1 {
		t.Fatalf("demand of user-b at hour 2 = %d, want 1", got)
	}
	// Hour stripe t=0 is all users' hour-0 demand, contiguous.
	if want := []int32{0, 3, 5}; !reflect.DeepEqual(c.Demand[:3], want) {
		t.Fatalf("hour-0 stripe %v, want %v", c.Demand[:3], want)
	}
}

func TestTracesRoundTrip(t *testing.T) {
	traces := []workload.Trace{
		{User: "x", Demand: []int{1, 2}},
		{User: "y", Demand: []int{0, 7}},
	}
	c, err := FromTraces(traces)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Traces(), traces) {
		t.Fatalf("Traces() = %+v, want %+v", c.Traces(), traces)
	}
}

func TestFromTracesErrors(t *testing.T) {
	cases := []struct {
		name   string
		traces []workload.Trace
		want   string
	}{
		{"empty", nil, "no traces"},
		{"ragged", []workload.Trace{{User: "a", Demand: []int{1}}, {User: "b", Demand: []int{1, 2}}}, "pad or clip"},
		{"negative", []workload.Trace{{User: "a", Demand: []int{-1}}}, "outside int32"},
		{"duplicate", []workload.Trace{{User: "a", Demand: []int{1}}, {User: "a", Demand: []int{2}}}, "duplicate user"},
		{"anonymous", []workload.Trace{{User: "", Demand: []int{1}}}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromTraces(tc.traces)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestDecodeClassification exercises each sentinel class and checks the
// valid-prefix contract: the error offset equals the prefix length.
func TestDecodeClassification(t *testing.T) {
	valid := encode(t, testCohort(t))

	damage := func(mut func(b []byte) []byte) []byte {
		return mut(append([]byte(nil), valid...))
	}
	recrc := func(b []byte) []byte {
		crc := crc32Of(b[:len(b)-footerLen])
		binary.LittleEndian.PutUint32(b[len(b)-footerLen:], crc)
		return b
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"torn header", valid[:headerLen-1], ErrTruncated},
		{"torn footer", valid[:len(valid)-2], ErrTruncated},
		{"bad magic", damage(func(b []byte) []byte { b[0] = 'X'; return b }), ErrCorrupt},
		{"version skew", damage(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], FormatVersion+1)
			return b
		}), ErrVersion},
		{"unknown flags", damage(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], 0x8000)
			return recrc(b)
		}), ErrCorrupt},
		{"checksum", damage(func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }), ErrChecksum},
		{"digest", damage(func(b []byte) []byte { b[16] ^= 0x01; return recrc(b) }), ErrDigest},
		{"column length mismatch", damage(func(b []byte) []byte {
			off := headerLen + 3*(2+len("user-a")) // first byte of the demand count
			binary.LittleEndian.PutUint32(b[off:], 13)
			return recrc(b)
		}), ErrCorrupt},
		{"hostile user count", damage(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 1<<25)
			return b
		}), ErrTruncated},
		{"hostile hour count", damage(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 1<<30)
			return b
		}), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs, n, err := DecodeAll(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			var ce *CohortError
			if !errors.As(err, &ce) {
				t.Fatalf("err %v is not a *CohortError", err)
			}
			if ce.Offset != n {
				t.Fatalf("error offset %d != valid prefix %d", ce.Offset, n)
			}
			if len(cs) != 0 || n != 0 {
				t.Fatalf("damaged single-record store decoded %d records, prefix %d", len(cs), n)
			}
		})
	}
}

// encodeDupUserRecord hand-builds a record naming the same user twice,
// with digest and CRC correctly stamped so the duplicate itself is what
// the decoder trips on. FromTraces and AppendCohort both refuse such a
// cohort, so the framing is spliced by hand.
func encodeDupUserRecord(tb testing.TB) []byte {
	tb.Helper()
	c := testCohort(tb)
	c.Users[1] = "user-a"
	var flags uint16
	digest := cohortDigest(flags, c.Hours, c.Users)
	buf := append([]byte(nil), cohortMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint16(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Users)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Hours))
	buf = append(buf, digest[:]...)
	for _, u := range c.Users {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(u)))
		buf = append(buf, u...)
	}
	buf = appendColumn(buf, c.Demand)
	return binary.LittleEndian.AppendUint32(buf, crc32Of(buf))
}

func TestDuplicateUserRecord(t *testing.T) {
	if _, _, err := DecodeAll(encodeDupUserRecord(t)); !errors.Is(err, ErrDuplicateUser) {
		t.Fatalf("err = %v, want ErrDuplicateUser", err)
	}
}

func TestLongestValidPrefix(t *testing.T) {
	one := encode(t, testCohort(t))
	two := append(append([]byte(nil), one...), one...)
	torn := append(append([]byte(nil), one...), one[:7]...)

	cs, n, err := DecodeAll(two)
	// Two identical records in one store decode fine at this layer;
	// cross-record duplicate users are the loader's concern (gtrace.LoadFS).
	if err != nil || len(cs) != 2 || n != int64(len(two)) {
		t.Fatalf("two records: %d decoded, prefix %d, err %v", len(cs), n, err)
	}
	cs, n, err = DecodeAll(torn)
	if !errors.Is(err, ErrTruncated) || len(cs) != 1 || n != int64(len(one)) {
		t.Fatalf("torn store: %d decoded, prefix %d, err %v", len(cs), n, err)
	}
}

func TestAppendCohortRejectsMalformed(t *testing.T) {
	nv := func(c *Cohort) *Cohort { return c }
	cases := []struct {
		name string
		c    *Cohort
	}{
		{"nil users", &Cohort{Hours: 1, Demand: []int32{1}}},
		{"shape mismatch", nv(&Cohort{Users: []string{"a"}, Hours: 2, Demand: []int32{1}})},
		{"negative hours", &Cohort{Users: []string{"a"}, Hours: -1, Demand: nil}},
		{"negative value", &Cohort{Users: []string{"a"}, Hours: 1, Demand: []int32{-4}}},
		{"short newres", &Cohort{Users: []string{"a"}, Hours: 2, Demand: []int32{1, 1}, NewRes: []int32{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AppendCohort(nil, tc.c); err == nil {
				t.Fatal("encoded a malformed cohort")
			}
		})
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cohort"+Ext)
	c := testCohort(t)
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], c) {
		t.Fatalf("file round trip mismatch: %+v", got)
	}
}

func TestReadFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadFile(filepath.Join(dir, "missing.colt")); err == nil {
		t.Fatal("missing file did not error")
	}
	torn := filepath.Join(dir, "torn.colt")
	buf := encode(t, testCohort(t))
	if err := writeBytes(torn, buf[:len(buf)-1]); err != nil {
		t.Fatal(err)
	}
	cs, err := ReadFile(torn)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn file err = %v, want ErrTruncated", err)
	}
	var ce *CohortError
	if !errors.As(err, &ce) || ce.Path != torn {
		t.Fatalf("error does not carry the file path: %v", err)
	}
	if len(cs) != 0 {
		t.Fatalf("torn single-record file yielded %d cohorts", len(cs))
	}
}

// TestReadFSFaults drives a store read through faultfs into the byte
// decoders, as the directory loader reads it: injected open and read
// errors must surface from the read, and injected truncation as
// ErrTruncated from both DecodeTraces and DecodeAll — never a silent
// partial load.
func TestReadFSFaults(t *testing.T) {
	c := testCohort(t)
	inner := fstest.MapFS{"cohort.colt": {Data: encode(t, c)}}
	readFS := func(fsys fs.FS) ([]workload.Trace, error) {
		data, err := fs.ReadFile(fsys, "cohort.colt")
		if err != nil {
			return nil, err
		}
		return DecodeTraces(data)
	}

	t.Run("clean", func(t *testing.T) {
		trs, err := readFS(faultfs.New(inner))
		if err != nil || !reflect.DeepEqual(trs, c.Traces()) {
			t.Fatalf("clean read: %+v, err %v", trs, err)
		}
	})
	t.Run("open error", func(t *testing.T) {
		fsys := faultfs.New(inner)
		fsys.Inject("cohort.colt", faultfs.KindOpenError)
		if _, err := readFS(fsys); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected", err)
		}
	})
	t.Run("read error", func(t *testing.T) {
		fsys := faultfs.New(inner)
		fsys.Inject("cohort.colt", faultfs.KindReadError)
		if _, err := readFS(fsys); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected", err)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		fsys := faultfs.New(inner)
		fsys.Inject("cohort.colt", faultfs.KindTruncate)
		trs, err := readFS(fsys)
		if !errors.Is(err, ErrTruncated) || len(trs) != 0 {
			t.Fatalf("DecodeTraces: %d traces, err %v, want none and ErrTruncated", len(trs), err)
		}
		data, err := fs.ReadFile(fsys, "cohort.colt")
		if err != nil {
			t.Fatal(err)
		}
		if cs, _, err := DecodeAll(data); !errors.Is(err, ErrTruncated) || len(cs) != 0 {
			t.Fatalf("DecodeAll: %d cohorts, err %v, want none and ErrTruncated", len(cs), err)
		}
	})
}

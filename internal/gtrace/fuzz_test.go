package gtrace

// Fuzz targets for the two trace parsers, covering the gzip
// auto-detection layer as well: arbitrary bytes — malformed rows,
// truncated gzip streams, hostile hour indices — must produce errors,
// never panics or unbounded allocations. Seed corpora live in
// testdata/fuzz; CI runs a short -fuzztime pass on both targets.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// gzipped compresses s so seeds can exercise the auto-gunzip path.
func gzipped(tb testing.TB, s string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(s)); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// ec2LogSeeds is FuzzReadEC2Log's seed corpus: well-formed logs, the
// hostile and malformed rows the parser must reject, and the spellings
// on which a hand-rolled byte parser could drift from strconv.Atoi and
// strings.TrimSpace.
func ec2LogSeeds(tb testing.TB) [][]byte {
	valid := "# user: app-7\nhour,instances\n0,12\n1,14\n5,3\n"
	gz := gzipped(tb, valid)
	return [][]byte{
		[]byte(valid),
		[]byte("hour,instances\n"),        // header only: empty trace, no error
		[]byte("0,1\n99999999999,5\n"),    // hostile hour index: must error, not allocate
		[]byte("0,1\n1,-3\n"),             // negative count
		[]byte("not,a,log\n"),             // wrong arity
		[]byte("12\n"),                    // missing column
		[]byte(""),                        // empty stream
		gz,                                // gzip-compressed valid log
		gz[:10],                           // truncated gzip stream
		{0x1f, 0x8b},                      // bare gzip magic
		[]byte("hour,instances\n0,5\n1,"), // row cut mid-write (partial download)
		gz[:len(gz)-6],                    // gzip cut mid-deflate-stream, past the header
		[]byte("# user: x\nhour,instances\n" + strings.Repeat("0,1\n", 100)),
		[]byte("# user: crlf\r\nhour,instances\r\n0,3\r\n2,4\r\n"),            // CRLF line endings
		[]byte("hour,instances\n \t0 ,\t7 \n\t1\t, 8\t\n"),                    // tabs and spaces around fields
		[]byte("hour,instances\n+3,+4\n-0,0\n"),                               // leading signs
		[]byte("hour,instances\n5,1\n2,9\n5,6\n0,0\n"),                        // duplicate and out-of-order hours
		[]byte("hour,instances\n" + strconv.Itoa(MaxLogHours) + ",1\n"),       // the hour bound itself
		[]byte("hour,instances\n" + strconv.Itoa(MaxLogHours+1) + ",1\n"),     // one past it
		[]byte("hour,instances\n12345678901234567890,1\n"),                    // 20 digits: Atoi's range error
		[]byte("hour,instances\n1,99999999999999999999\n"),                    // ... in the count column
		[]byte("hour,instances\n\u00a00,5\u00a0\n\u00a01\u00a0,\u00a06\n"),    // U+00A0 padding
		[]byte("# user:  \u00a0 nbsp-user\u00a0\nhour,instances\n0,1\n"),      // ... around the user name
		[]byte("hour,instances\n1_0,2\n"),                                     // underscores are not digits
		[]byte("hour,instances\n0,1\n" + strings.Repeat("9", 70000) + ",1\n"), // row over bufio's 64 KB token limit
	}
}

// FuzzReadEC2Log holds the in-place parser to the reference one: any
// input yields the same trace (user, length, every hour) or the same
// error text from both, and a nil error a structurally sane trace.
func FuzzReadEC2Log(f *testing.F) {
	for _, seed := range ec2LogSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadEC2LogAuto(bytes.NewReader(data))
		want, wantErr := readEC2LogAutoOracle(bytes.NewReader(data))
		if d := sameParse(tr, err, want, wantErr); d != "" {
			t.Fatalf("parser and oracle disagree: %s", d)
		}
		if err != nil {
			return
		}
		// A nil error must yield a structurally sane trace.
		if tr.User == "" {
			t.Errorf("parsed trace has no user")
		}
		if len(tr.Demand) > MaxLogHours+1 {
			t.Errorf("series length %d exceeds the %d-hour cap", len(tr.Demand), MaxLogHours)
		}
		for h, d := range tr.Demand {
			if d < 0 {
				t.Errorf("hour %d: negative demand %d survived parsing", h, d)
			}
		}
	})
}

func FuzzReadTaskEvents(f *testing.F) {
	valid := "0,,6218406404,0,,0,alice,,,0.03,0.01,0.002,\n" +
		"3600,,6218406404,1,,1,bob,,,0.06,0.02,0.004,\n"
	f.Add([]byte(valid))
	f.Add([]byte("0,,1,0,,0,u,,,,,,\n"))    // blank resource fields parse as zero
	f.Add([]byte("0,,1,0,0\n"))             // wrong column count
	f.Add([]byte("x,,1,0,,0,u,,,0,0,0,\n")) // non-numeric timestamp
	f.Add([]byte(""))                       // empty stream: ErrNoEvents
	f.Add(gzipped(f, valid))                // gzip-compressed stream
	f.Add(gzipped(f, valid)[:8])            // truncated gzip stream
	f.Add([]byte{0x1f, 0x8b, 0x08})         // gzip magic, garbage header
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTaskEventsAuto(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(events) == 0 {
			t.Error("nil error with zero events (want ErrNoEvents)")
		}
	})
}

// FuzzLoadEC2LogFS drives the directory loader — the layer riexp
// -tracedir sits on — with one arbitrary file under both error
// policies. Whatever the bytes, the loader must return a coherent
// (traces, report, err) triple: strict either loads the file or fails,
// best-effort either loads it or records exactly one skip and reports
// ErrNoTraces; nothing panics.
func FuzzLoadEC2LogFS(f *testing.F) {
	valid := "# user: app-7\nhour,instances\n0,12\n1,14\n5,3\n"
	f.Add([]byte(valid))
	f.Add([]byte("hour,instances\n0,5\n1,")) // mid-row truncation
	f.Add(gzipped(f, valid))                 // valid gzip (magic-detected despite .csv name)
	gz := gzipped(f, valid)
	f.Add(gz[:len(gz)-6]) // truncated gzip stream
	f.Add([]byte(""))     // empty file
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := fstest.MapFS{"f.csv": &fstest.MapFile{Data: data}}
		for _, policy := range []ErrorPolicy{Strict, BestEffort} {
			traces, report, err := LoadEC2LogFS(fsys, LoadOptions{Policy: policy})
			if err != nil {
				if len(traces) != 0 {
					t.Errorf("%v: error %v alongside %d traces", policy, err, len(traces))
				}
				if policy == BestEffort && !errors.Is(err, ErrNoTraces) {
					t.Errorf("best-effort single-file load failed with %v, want ErrNoTraces chain", err)
				}
				continue
			}
			if len(traces) != 1 || len(report.Loaded) != 1 || report.Partial() {
				t.Errorf("%v: clean load returned %d traces, report %+v", policy, len(traces), report)
			}
		}
	})
}

// TestHostileHourIndexRejected pins the MaxLogHours guard outside the
// fuzzer so the regression is caught even in -short runs.
func TestHostileHourIndexRejected(t *testing.T) {
	_, err := ReadEC2Log(strings.NewReader("0,1\n99999999999,5\n"))
	if err == nil {
		t.Fatal("terabyte-scale hour index accepted")
	}
	if !strings.Contains(err.Error(), "hour") {
		t.Errorf("error %q does not mention the hour cap", err)
	}
	// The boundary itself is accepted.
	tr, err := ReadEC2Log(strings.NewReader("# user: edge\nhour,instances\n" +
		"0,1\n"))
	if err != nil || tr.Len() != 1 {
		t.Fatalf("minimal log rejected: %v", err)
	}
}

// TestTruncatedGzipSurfacesError pins the truncated-stream behavior
// for both parsers.
func TestTruncatedGzipSurfacesError(t *testing.T) {
	log := gzipped(t, "# user: z\nhour,instances\n0,4\n1,5\n")
	if _, err := ReadEC2LogAuto(bytes.NewReader(log[:12])); err == nil {
		t.Error("truncated gzip ec2 log accepted")
	}
	events := gzipped(t, "0,,1,0,,0,u,,,0,0,0,\n")
	if _, err := ReadTaskEventsAuto(bytes.NewReader(events[:12])); err == nil {
		t.Error("truncated gzip task events accepted")
	}
}

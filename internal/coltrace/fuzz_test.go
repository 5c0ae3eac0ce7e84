package coltrace

// Fuzz target for the cohort decoder: arbitrary bytes — torn footers,
// version skew, column-length mismatches, duplicate user ids, hostile
// counts — must produce classified errors, never panics, unbounded
// allocations, or silently wrong cohorts; and whatever decodes must
// re-encode byte-exactly (decode ∘ encode is the identity on the valid
// prefix); and the trace decoder must agree with the cohort decoder
// then Cohort.Traces. Seed corpus entries cover each committed failure class; CI
// runs a short -fuzztime pass alongside the gtrace and gridstore
// targets.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rimarket/internal/workload"
)

func FuzzColtraceDecode(f *testing.F) {
	base := testCohort(f)
	valid := encode(f, base)

	withNewRes := testCohort(f)
	withNewRes.NewRes = make([]int32, len(withNewRes.Demand))
	withNewRes.NewRes[0] = 3
	validNR := encode(f, withNewRes)

	two := append(append([]byte(nil), valid...), validNR...)

	recrc := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-footerLen:], crc32Of(b[:len(b)-footerLen]))
		return b
	}

	f.Add([]byte(nil))                       // empty store: zero cohorts, no error
	f.Add(valid)                             // one clean record
	f.Add(validNR)                           // clean record with a reservation block
	f.Add(two)                               // two clean records
	f.Add(valid[:len(valid)-3])              // torn footer
	f.Add(valid[:headerLen-1])               // truncation inside the header
	f.Add(append(two, valid[:9]...))         // clean prefix + torn tail
	f.Add([]byte("RICTnot-a-real-cohort\n")) // magic without framing

	skew := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(skew[4:6], FormatVersion+1)
	f.Add(skew) // version skew

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	f.Add(badMagic) // framing damage

	colMismatch := append([]byte(nil), valid...)
	nameTable := 3 * (2 + len("user-a"))
	binary.LittleEndian.PutUint32(colMismatch[headerLen+nameTable:], 1)
	f.Add(recrc(colMismatch)) // column-length mismatch, CRC restamped

	f.Add(encodeDupUserRecord(f)) // duplicate user id, digest and CRC intact

	flipped := append([]byte(nil), two...)
	flipped[len(flipped)-footerLen-1] ^= 0x40
	f.Add(flipped) // checksum mismatch in the second record

	hugeUsers := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeUsers[8:12], 1<<26)
	f.Add(hugeUsers) // hostile user count: must error, not allocate

	hugeHours := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeHours[12:16], 1<<31)
	f.Add(hugeHours) // hostile hour count

	f.Fuzz(func(t *testing.T, data []byte) {
		cs, validLen, err := DecodeAll(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", validLen, len(data))
		}
		if err != nil {
			var ce *CohortError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error %v is not a *CohortError", err)
			}
			if ce.Offset != validLen {
				t.Fatalf("error offset %d != valid prefix %d", ce.Offset, validLen)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, ErrDigest) && !errors.Is(err, ErrDuplicateUser) {
				t.Fatalf("decode error %v wraps no classification sentinel", err)
			}
		}
		// The trace decoder DecodeTraces runs reads the same prefix into
		// the traces Cohort.Traces builds, and stops at the same error.
		var got, want []workload.Trace
		gotLen, gotErr := scan(data, func(b []byte) (int, error) {
			trs, n, err := decodeTraces(b)
			got = append(got, trs...)
			return n, err
		})
		for _, c := range cs {
			want = append(want, c.Traces()...)
		}
		if gotLen != validLen || fmt.Sprint(gotErr) != fmt.Sprint(err) {
			t.Fatalf("trace decode: prefix %d, err %v; cohort decode: prefix %d, err %v", gotLen, gotErr, validLen, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trace decode differs from Cohort.Traces:\n got %+v\nwant %+v", got, want)
		}
		// Whatever decoded must be internally consistent and byte-exactly
		// re-encodable: decode ∘ encode must be the identity on the valid
		// prefix.
		var reenc []byte
		for _, c := range cs {
			if len(c.Demand) != len(c.Users)*c.Hours {
				t.Fatalf("decoded cohort shape %d users x %d hours, %d values",
					len(c.Users), c.Hours, len(c.Demand))
			}
			var encErr error
			reenc, encErr = AppendCohort(reenc, c)
			if encErr != nil {
				t.Fatalf("decoded cohort does not re-encode: %v", encErr)
			}
		}
		if int64(len(reenc)) != validLen {
			t.Fatalf("re-encoded prefix is %d bytes, decoder consumed %d", len(reenc), validLen)
		}
		for i := range reenc {
			if reenc[i] != data[i] {
				t.Fatalf("re-encoded byte %d differs from input", i)
			}
		}
	})
}

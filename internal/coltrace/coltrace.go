// Package coltrace is the columnar on-disk cohort store: a compact,
// versioned binary format holding a whole cohort's demand (and
// optionally new-reservation) series as hour-major column blocks, so a
// million-user cohort is parsed once by `ritrace convert` and then
// loaded by every subsequent run with a single sequential read
// (DESIGN.md §4.6).
//
// A `.colt` file is a sequence of framed cohort records. Each record
// carries a fixed header (magic, format version, flags, user and hour
// counts, an 8-byte config digest binding the header to the user
// table), a length-prefixed user-name table, one or two column blocks
// of little-endian int32 values laid out hour-major (all users' hour 0,
// then hour 1, ...), and a CRC-32C footer over the whole record — the
// same framing discipline as internal/gridstore. Decoding keeps the
// longest valid prefix and classifies whatever stopped it with a
// sentinel wrapped in a *CohortError, so torn tails, version skew and
// corruption are reported, never silently dropped. Every decodable
// record re-encodes to exactly its input bytes: the encoding is
// canonical and decode ∘ encode is the identity.
package coltrace

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"rimarket/internal/workload"
)

const (
	// FormatVersion versions the cohort record framing. Decoders reject
	// records from any other version with ErrVersion; cohorts are simply
	// re-converted from their source traces, never migrated.
	FormatVersion = 1

	// Ext is the conventional file extension for cohort stores.
	Ext = ".colt"

	// headerLen is the fixed-size prefix of every record: magic (4),
	// version (2), flags (2), users (4), hours (4), config digest (8).
	headerLen = 24

	// footerLen is the CRC-32C trailer.
	footerLen = 4

	// countLen is the redundant value-count prefix of each column block;
	// it must equal users*hours, catching column-length mismatches as a
	// distinct corruption class instead of a frame-shift.
	countLen = 4

	// maxNameLen bounds a user-name length so a corrupted table cannot
	// demand an absurd allocation.
	maxNameLen = 1 << 12

	// maxUsers and maxHours bound the header counts for the same reason.
	maxUsers = 1 << 26
	maxHours = 1 << 26

	// maxValues bounds users*hours per column block (1 GiB of int32s).
	maxValues = 1 << 28

	// flagNewRes marks a record carrying a new-reservation column block
	// after the demand block.
	flagNewRes = 1 << 0

	// flagsMask is the set of defined flag bits; records with any other
	// bit set are rejected so the encoding stays canonical.
	flagsMask = flagNewRes
)

// cohortMagic opens every cohort record.
var cohortMagic = [4]byte{'R', 'I', 'C', 'T'}

// crcTable is the Castagnoli polynomial, matching gridstore.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Sentinel decode errors, each reported wrapped in a *CohortError
// carrying the byte offset (and file path when known) so errors.Is
// works on the sentinel while the message stays actionable.
var (
	// ErrTruncated marks a record cut short — a torn tail from an
	// interrupted write. Everything before it is intact.
	ErrTruncated = errors.New("coltrace: truncated cohort record")
	// ErrChecksum marks a fully-framed record whose CRC-32C does not
	// match its payload.
	ErrChecksum = errors.New("coltrace: cohort checksum mismatch")
	// ErrVersion marks a record written by a different FormatVersion.
	ErrVersion = errors.New("coltrace: unsupported format version")
	// ErrCorrupt marks framing damage: bad magic, unknown flags, an
	// impossible count, a column-length mismatch, a negative value.
	ErrCorrupt = errors.New("coltrace: corrupt cohort record")
	// ErrDigest marks a record whose header config digest does not match
	// the digest recomputed from its own header and user table.
	ErrDigest = errors.New("coltrace: cohort config digest mismatch")
	// ErrDuplicateUser marks a record naming the same user twice.
	ErrDuplicateUser = errors.New("coltrace: duplicate user id")
)

// Cohort is one decoded cohort: per-user ids plus hour-major column
// blocks. Demand (and NewRes, when present) hold Users×Hours values
// with value (u, t) at index t*len(Users)+u, so advancing every user
// one hour reads one contiguous stripe.
//
//rilint:frozen
type Cohort struct {
	// Users holds the unique per-user ids, fixing the column order.
	Users []string
	// Hours is the series length shared by every user in the cohort.
	Hours int
	// Demand is the hour-major demand block (d_t per user per hour).
	Demand []int32
	// NewRes, when non-nil, is the hour-major new-reservation block
	// (n_t per user per hour).
	NewRes []int32
}

// validate rejects cohorts the format could not round-trip.
func (c *Cohort) validate() error {
	switch {
	case len(c.Users) == 0:
		return errors.New("coltrace: cohort has no users")
	case len(c.Users) > maxUsers:
		return fmt.Errorf("coltrace: %d users exceeds cap %d", len(c.Users), maxUsers)
	case c.Hours < 0 || c.Hours > maxHours:
		return fmt.Errorf("coltrace: hour count %d out of range", c.Hours)
	case len(c.Users)*c.Hours > maxValues:
		return fmt.Errorf("coltrace: column of %d values exceeds cap %d", len(c.Users)*c.Hours, maxValues)
	}
	nv := len(c.Users) * c.Hours
	if len(c.Demand) != nv {
		return fmt.Errorf("coltrace: demand block has %d values, cohort shape wants %d", len(c.Demand), nv)
	}
	if c.NewRes != nil && len(c.NewRes) != nv {
		return fmt.Errorf("coltrace: reservation block has %d values, cohort shape wants %d", len(c.NewRes), nv)
	}
	seen := make(map[string]struct{}, len(c.Users))
	for _, u := range c.Users {
		if u == "" || len(u) > maxNameLen {
			return fmt.Errorf("coltrace: user name %.32q... length %d out of range [1, %d]", u, len(u), maxNameLen)
		}
		if _, dup := seen[u]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateUser, u)
		}
		seen[u] = struct{}{}
	}
	for i, v := range c.Demand {
		if v < 0 {
			return fmt.Errorf("coltrace: negative demand value %d at column index %d", v, i)
		}
	}
	for i, v := range c.NewRes {
		if v < 0 {
			return fmt.Errorf("coltrace: negative reservation value %d at column index %d", v, i)
		}
	}
	return nil
}

// digest is the 8-byte config binding stamped into every record
// header: a truncated SHA-256 over a length-prefixed serialization of
// the version, flags, shape and user table. Like gridstore's spec
// digest it is not cryptographic binding — it is a strong guard
// against splicing a header onto another cohort's columns.
func cohortDigest(flags uint16, hours int, users []string) [8]byte {
	h := sha256.New()
	fmt.Fprintf(h, "coltrace/%d\x00%d\x00%d\x00%d\x00", FormatVersion, flags, len(users), hours)
	for _, u := range users {
		fmt.Fprintf(h, "%d:%s\x00", len(u), u)
	}
	var d [8]byte
	copy(d[:], h.Sum(nil)[:8])
	return d
}

// CohortError locates one undecodable record inside a cohort store. It
// wraps a sentinel (ErrTruncated, ErrChecksum, ErrVersion, ErrCorrupt,
// ErrDigest, ErrDuplicateUser) so callers classify with errors.Is.
type CohortError struct {
	Path   string
	Offset int64
	Err    error
}

func (e *CohortError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("coltrace: cohort record at offset %d: %v", e.Offset, e.Err)
	}
	return fmt.Sprintf("coltrace: %s: cohort record at offset %d: %v", e.Path, e.Offset, e.Err)
}

func (e *CohortError) Unwrap() error { return e.Err }

// AppendCohort appends c's framed encoding to buf and returns the
// extended slice. The cohort is validated first: a malformed cohort is
// an encoding bug and returns an error rather than writing a record
// decoding would reject.
func AppendCohort(buf []byte, c *Cohort) ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	var flags uint16
	if c.NewRes != nil {
		flags |= flagNewRes
	}
	digest := cohortDigest(flags, c.Hours, c.Users)
	start := len(buf)
	buf = append(buf, cohortMagic[:]...)
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
	if c.NewRes != nil {
		buf = appendColumn(buf, c.NewRes)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable)), nil
}

func appendColumn(buf []byte, vals []int32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// frame is a record's validated framing: its user table and shape,
// where its column blocks start and how long it is. Only the column
// blocks' counts and values are still unchecked.
type frame struct {
	users []string
	hours int
	cols  int // column blocks: demand, then reservations if flagged
	off   int // offset of the first column block
	size  int // record length, footer included
}

// decodeFrame checks the record at the head of b up to its column
// blocks: header, user table, CRC, config digest and unique users. An
// empty b is the caller's clean EOF, never passed here.
func decodeFrame(b []byte) (frame, error) {
	if len(b) < headerLen {
		return frame{}, ErrTruncated
	}
	if [4]byte(b[:4]) != cohortMagic {
		return frame{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != FormatVersion {
		return frame{}, fmt.Errorf("%w: record version %d, this build reads %d", ErrVersion, v, FormatVersion)
	}
	flags := binary.LittleEndian.Uint16(b[6:8])
	if bad := flags &^ uint16(flagsMask); bad != 0 {
		return frame{}, fmt.Errorf("%w: unknown flag bits %#04x", ErrCorrupt, bad)
	}
	users := int(binary.LittleEndian.Uint32(b[8:12]))
	hours := int(binary.LittleEndian.Uint32(b[12:16]))
	digest := [8]byte(b[16:24])
	switch {
	case users == 0 || users > maxUsers:
		return frame{}, fmt.Errorf("%w: user count %d out of range [1, %d]", ErrCorrupt, users, maxUsers)
	case hours > maxHours:
		return frame{}, fmt.Errorf("%w: hour count %d exceeds %d", ErrCorrupt, hours, maxHours)
	case users*hours > maxValues:
		return frame{}, fmt.Errorf("%w: column of %d values exceeds cap %d", ErrCorrupt, users*hours, maxValues)
	}
	cols := 1
	if flags&flagNewRes != 0 {
		cols = 2
	}
	nv := users * hours
	// Before allocating anything sized by the header, require the bytes
	// the smallest possible such record would occupy, so a hostile
	// header cannot demand an allocation the input could never back.
	if minTotal := headerLen + 2*users + cols*(countLen+4*nv) + footerLen; len(b) < minTotal {
		return frame{}, ErrTruncated
	}
	names := make([]string, users)
	off := headerLen
	for i := range names {
		if off+2 > len(b) {
			return frame{}, ErrTruncated
		}
		n := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if n == 0 || n > maxNameLen {
			return frame{}, fmt.Errorf("%w: user name length %d out of range [1, %d]", ErrCorrupt, n, maxNameLen)
		}
		if off+n > len(b) {
			return frame{}, ErrTruncated
		}
		names[i] = string(b[off : off+n])
		off += n
	}
	total := off + cols*(countLen+4*nv) + footerLen
	if len(b) < total {
		return frame{}, ErrTruncated
	}
	body := b[:total-footerLen]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(b[total-footerLen:total]); got != want {
		return frame{}, fmt.Errorf("%w: crc %08x, want %08x", ErrChecksum, got, want)
	}
	if cohortDigest(flags, hours, names) != digest {
		return frame{}, fmt.Errorf("%w: header says %x", ErrDigest, digest[:])
	}
	seen := make(map[string]struct{}, users)
	for _, u := range names {
		if _, dup := seen[u]; dup {
			return frame{}, fmt.Errorf("%w: %q", ErrDuplicateUser, u)
		}
		seen[u] = struct{}{}
	}
	return frame{users: names, hours: hours, cols: cols, off: off, size: total}, nil
}

// decodeOne decodes the record at the head of b, returning it and the
// number of bytes consumed.
func decodeOne(b []byte) (*Cohort, int, error) {
	f, err := decodeFrame(b)
	if err != nil {
		return nil, 0, err
	}
	nv := len(f.users) * f.hours
	demand, off, err := decodeColumn(b, f.off, nv, "demand")
	if err != nil {
		return nil, 0, err
	}
	c := &Cohort{Users: f.users, Hours: f.hours, Demand: demand}
	if f.cols == 2 {
		if c.NewRes, _, err = decodeColumn(b, off, nv, "reservation"); err != nil {
			return nil, 0, err
		}
	}
	return c, f.size, nil
}

// decodeTraces decodes the record at the head of b straight into one
// demand trace per user, in column order, as decodeOne then
// Cohort.Traces would, with the same errors, but without the int32
// columns. The traces share one backing array. It returns them and the
// number of bytes consumed.
func decodeTraces(b []byte) ([]workload.Trace, int, error) {
	f, err := decodeFrame(b)
	if err != nil {
		return nil, 0, err
	}
	users, hours := len(f.users), f.hours
	nv := users * hours
	off, err := columnStart(b, f.off, nv, "demand")
	if err != nil {
		return nil, 0, err
	}
	demand := make([]int, nv)
	for t := range hours {
		for u := range users {
			i := t*users + u
			v := int32(binary.LittleEndian.Uint32(b[off+4*i:]))
			if v < 0 {
				return nil, 0, negativeValue("demand", i)
			}
			demand[u*hours+t] = int(v)
		}
	}
	if f.cols == 2 {
		if off, err = columnStart(b, off+4*nv, nv, "reservation"); err != nil {
			return nil, 0, err
		}
		for i := range nv {
			if int32(binary.LittleEndian.Uint32(b[off+4*i:])) < 0 {
				return nil, 0, negativeValue("reservation", i)
			}
		}
	}
	out := make([]workload.Trace, users)
	for u, name := range f.users {
		out[u] = workload.Trace{User: name, Demand: demand[u*hours : (u+1)*hours : (u+1)*hours]}
	}
	return out, f.size, nil
}

// columnStart checks the count prefix of the column block at off and
// returns the offset of its first value.
func columnStart(b []byte, off, nv int, what string) (int, error) {
	if n := int(binary.LittleEndian.Uint32(b[off:])); n != nv {
		return 0, fmt.Errorf("%w: %s column declares %d values, header shape wants %d", ErrCorrupt, what, n, nv)
	}
	return off + countLen, nil
}

func negativeValue(what string, i int) error {
	return fmt.Errorf("%w: negative %s value at column index %d", ErrCorrupt, what, i)
}

func decodeColumn(b []byte, off, nv int, what string) ([]int32, int, error) {
	off, err := columnStart(b, off, nv, what)
	if err != nil {
		return nil, 0, err
	}
	vals := make([]int32, nv)
	for i := range vals {
		v := int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if v < 0 {
			return nil, 0, negativeValue(what, i)
		}
		vals[i] = v
	}
	return vals, off, nil
}

// DecodeAll scans a cohort store's bytes and returns the records of
// its longest valid prefix, the prefix's byte length, and the
// *CohortError that stopped the scan (nil when the whole store decoded
// cleanly).
func DecodeAll(data []byte) ([]*Cohort, int64, error) {
	var out []*Cohort
	off, err := scan(data, func(b []byte) (int, error) {
		c, n, err := decodeOne(b)
		if err == nil {
			out = append(out, c)
		}
		return n, err
	})
	return out, off, err
}

// scan decodes data's records in order with decode, which returns each
// one's length, and returns the longest valid prefix's byte length and
// the *CohortError that stopped the scan (nil when the whole store
// decoded cleanly).
func scan(data []byte, decode func([]byte) (int, error)) (int64, error) {
	var off int64
	for int(off) < len(data) {
		n, err := decode(data[off:])
		if err != nil {
			return off, &CohortError{Offset: off, Err: err}
		}
		off += int64(n)
	}
	return off, nil
}

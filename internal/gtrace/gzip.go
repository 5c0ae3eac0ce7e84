package gtrace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"

	"rimarket/internal/workload"
)

// gzipMagic is the two-byte gzip stream header.
var gzipMagic = [2]byte{0x1f, 0x8b}

// maybeGunzip wraps r with a gzip reader when the stream starts with
// the gzip magic bytes, passing plain streams through untouched. The
// real Google cluster-usage trace ships as part-?????-of-?????.csv.gz,
// so parsers auto-detect rather than trusting file extensions.
func maybeGunzip(r io.Reader) (io.Reader, error) {
	return gunzipPeeked(bufio.NewReader(r))
}

// gunzipPeeked is maybeGunzip on a buffered reader the caller owns.
func gunzipPeeked(br *bufio.Reader) (io.Reader, error) {
	head, err := br.Peek(2)
	if err != nil {
		// Short or empty streams cannot be gzip; hand them to the parser
		// unchanged so it reports its own (better) error.
		return br, nil //nolint:nilerr // deliberate: defer error to parser
	}
	if head[0] != gzipMagic[0] || head[1] != gzipMagic[1] {
		return br, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("gtrace: gzip: %w", err)
	}
	return zr, nil
}

// ReadTaskEventsAuto parses a task-events stream that may be gzip
// compressed (auto-detected by magic bytes).
func ReadTaskEventsAuto(r io.Reader) ([]TaskEvent, error) {
	rr, err := maybeGunzip(r)
	if err != nil {
		return nil, err
	}
	return ReadTaskEvents(rr)
}

// ReadEC2LogAuto parses an EC2 usage log that may be gzip compressed
// (auto-detected by magic bytes).
func ReadEC2LogAuto(r io.Reader) (workload.Trace, error) {
	var s logScratch
	return s.readAuto(r)
}

// readAuto is ReadEC2LogAuto on s's buffers.
func (s *logScratch) readAuto(r io.Reader) (workload.Trace, error) {
	if s.br == nil {
		s.br = bufio.NewReader(r)
	} else {
		s.br.Reset(r)
	}
	rr, err := gunzipPeeked(s.br)
	if err != nil {
		return workload.Trace{}, err
	}
	return s.read(rr)
}

// WriteTaskEventsGZ writes events as a gzip-compressed task-events CSV.
func WriteTaskEventsGZ(w io.Writer, events []TaskEvent) error {
	zw := gzip.NewWriter(w)
	if err := WriteTaskEvents(zw, events); err != nil {
		zw.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("gtrace: gzip close: %w", err)
	}
	return nil
}

package ridserver

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"rimarket/internal/experiments"
)

// The /v1/recommend wire path. A request body is read into a pooled
// buffer; the canonical Query object is parsed by a strict fast path,
// and anything else goes to encoding/json exactly as before; the
// answer is appended into the same buffer by encoders that produce
// json.Marshal's bytes. FuzzQueryDecode and FuzzRecommendJSON hold the
// fast paths to encoding/json.

// wireBufs recycles the per-request buffer: the body is read into it,
// and once decoded into a Query (whose strings are copies) the same
// buffer receives the response.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// maxPooledBuf bounds the buffers returned to wireBufs, so one body
// near MaxBodyBytes or one long error message is not pinned for good.
const maxPooledBuf = 16 << 10

func getWireBuf() *[]byte { return wireBufs.Get().(*[]byte) }

func putWireBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		*bp = (*bp)[:0]
		wireBufs.Put(bp)
	}
}

// jsonContentType is the one Content-Type value every JSON answer
// carries. Its capacity equals its length, so a Header.Add on a
// response appends to a copy, never to this slice.
var jsonContentType = []string{"application/json"}

// autoLengthMax is the largest body net/http's server holds back whole
// until the handler returns (its threshold for chunked encoding); for
// those bodies it writes the Content-Length header itself.
const autoLengthMax = 2048

// writeBody sends b as one complete response. Every answer carries a
// Content-Length on the wire: net/http adds it to bodies up to
// autoLengthMax, and writeBody sets it on longer ones.
// Encode-then-write keeps responses all-or-nothing: a panic before this
// point leaves the stream clean for the 500 path.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if len(b) > autoLengthMax {
		h["Content-Length"] = []string{strconv.Itoa(len(b))}
	}
	w.WriteHeader(status)
	w.Write(b)
}

// writeError sends an ErrorResponse carrying msg.
func writeError(w http.ResponseWriter, status int, msg string) {
	bp := getWireBuf()
	*bp = appendErrorResponse((*bp)[:0], msg)
	writeBody(w, status, *bp)
	putWireBuf(bp)
}

// readBody appends everything r yields to buf and returns it with the
// error that ended the read: io.EOF for a complete body, otherwise the
// reader's error (a *http.MaxBytesError once the body passes the
// limit, after exactly the limit's worth of bytes).
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
}

// replayReader yields b, then err: a body already read, replayed with
// the error its read ended on.
type replayReader struct {
	b   []byte
	err error
}

func (r *replayReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// decodeQuery decodes the Query a request body holds: the first JSON
// value, unknown fields refused, as json.Decoder reads it. body is what
// the read returned and readErr the error it ended on. The canonical
// object takes parseQuery; any other body goes to json.Decoder, which
// sees the same bytes and the same error, in the same order, as it
// would reading the request directly, so first-value-only decoding,
// the *http.MaxBytesError of an oversized body and every error message
// are exactly encoding/json's.
func decodeQuery(body []byte, readErr error) (experiments.Query, error) {
	if q, ok := parseQuery(body); ok {
		return q, nil
	}
	dec := json.NewDecoder(&replayReader{b: body, err: readErr})
	dec.DisallowUnknownFields()
	var q experiments.Query
	err := dec.Decode(&q)
	return q, err
}

// parseQuery is decodeQuery's fast path for the canonical Query
// object: keys among user, policy, instance and hour (exact spelling),
// strings with no escapes and no control bytes that are valid UTF-8,
// integers of the form -?(0|[1-9][0-9]*) that fit an int, and JSON
// whitespace between tokens. Like json.Decoder it ignores what follows
// the object, and a repeated key keeps its last value. It reports
// false for every other input, which decodeQuery then answers.
func parseQuery(b []byte) (q experiments.Query, ok bool) {
	// User and policy are b[us:ue] and b[ps:pe], copied out at the end
	// in one allocation.
	var us, ue, ps, pe int
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return q, false
	}
	i = skipSpace(b, i+1)
	for i == len(b) || b[i] != '}' {
		end, ok := scanPlainString(b, i)
		if !ok {
			return q, false
		}
		key := b[i+1 : end]
		i = skipSpace(b, end+1)
		if i == len(b) || b[i] != ':' {
			return q, false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "user", "policy":
			end, ok := scanPlainString(b, i)
			if !ok {
				return q, false
			}
			if key[0] == 'u' {
				us, ue = i+1, end
			} else {
				ps, pe = i+1, end
			}
			i = end + 1
		case "instance", "hour":
			n, end, ok := scanInt(b, i)
			if !ok {
				return q, false
			}
			if key[0] == 'i' {
				q.Instance = n
			} else {
				q.Hour = n
			}
			i = end
		default:
			return q, false
		}
		i = skipSpace(b, i)
		if i == len(b) || (b[i] != ',' && b[i] != '}') {
			return q, false
		}
		if b[i] == ',' {
			i = skipSpace(b, i+1)
			if i < len(b) && b[i] == '}' {
				return q, false // a trailing comma
			}
		}
	}
	lo, hi := min(us, ps), max(ue, pe)
	str := string(b[lo:hi])
	q.User, q.Policy = str[us-lo:ue-lo], str[ps-lo:pe-lo]
	return q, true
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i, in JSON's sense of whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanPlainString reports whether b[i] opens a plain string token, one
// with no backslash, no byte below 0x20 and valid UTF-8, and returns
// the index of its closing quote.
func scanPlainString(b []byte, i int) (int, bool) {
	if i == len(b) || b[i] != '"' {
		return 0, false
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j, ascii || utf8.Valid(b[i+1:j])
		case c == '\\' || c < 0x20:
			return 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return 0, false
}

// scanInt reads an integer of the form -?(0|[1-9][0-9]*) at b[i] that
// fits an int, returning it and the index after its last digit. What
// follows is the caller's to check: a fraction or exponent there is
// not a ',' or '}', so it sends the body to the slow path.
func scanInt(b []byte, i int) (int, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i == len(b) || b[i] < '0' || b[i] > '9' {
		return 0, i, false
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	if b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			d := uint64(b[i] - '0')
			if u > (limit-d)/10 {
				return 0, i, false
			}
			u = u*10 + d
		}
	}
	n := int(u)
	if neg {
		n = -n
	}
	return n, i, true
}

// appendRecommendation appends json.Marshal(rec) and a newline to dst.
// It reports false, as json.Marshal errs, when a cost is NaN or ±Inf.
// The field order and names are Recommendation's struct tags.
func appendRecommendation(dst []byte, rec experiments.Recommendation) ([]byte, bool) {
	dst = append(dst, `{"user":`...)
	dst = appendString(dst, rec.User)
	dst = append(dst, `,"policy":`...)
	dst = appendString(dst, rec.Policy)
	dst = append(dst, `,"instance":`...)
	dst = strconv.AppendInt(dst, int64(rec.Instance), 10)
	dst = append(dst, `,"hour":`...)
	dst = strconv.AppendInt(dst, int64(rec.Hour), 10)
	dst = append(dst, `,"action":`...)
	dst = appendString(dst, rec.Action)
	dst = append(dst, `,"start":`...)
	dst = strconv.AppendInt(dst, int64(rec.Start), 10)
	dst = append(dst, `,"expires_at":`...)
	dst = strconv.AppendInt(dst, int64(rec.ExpiresAt), 10)
	dst = append(dst, `,"sold_at":`...)
	dst = strconv.AppendInt(dst, int64(rec.SoldAt), 10)
	dst = append(dst, `,"next_checkpoint":`...)
	dst = strconv.AppendInt(dst, int64(rec.NextCheckpoint), 10)
	dst = append(dst, `,"reserved":`...)
	dst = strconv.AppendInt(dst, int64(rec.Reserved), 10)
	dst = append(dst, `,"keep_cost":`...)
	dst, ok := appendFloat(dst, rec.KeepCost)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"policy_cost":`...)
	dst, ok = appendFloat(dst, rec.PolicyCost)
	if !ok {
		return dst, false
	}
	return append(dst, "}\n"...), true
}

// appendErrorResponse appends json.Marshal(ErrorResponse{msg}) and a
// newline to dst.
func appendErrorResponse(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendString(dst, msg)
	return append(dst, "}\n"...)
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and at 1e21 and above with a
// one-digit negative exponent unpadded (1e-07 becomes 1e-7). It
// reports false for NaN and ±Inf, which JSON cannot carry.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped with
// HTML escaping on (json.Marshal's mode): printable, except '"', '\\',
// '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string the way json.Marshal
// writes one: short escapes for '"', '\\', \b, \f, \n, \r and \t,
// \u00XX for other control bytes and for '<', '>' and '&', \ufffd for
// each byte of invalid UTF-8, and U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

package ridserver

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"

	"rimarket/internal/experiments"
)

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// InfoResponse describes the served snapshot: what can be asked.
type InfoResponse struct {
	// Policies lists the selling policies the snapshot answers for.
	Policies []string `json:"policies"`
	// Users is the cohort size; Hours the queryable horizon — Evaluate
	// accepts hours in [0, Hours).
	Users int `json:"users"`
	Hours int `json:"hours"`
}

// routes builds the mux. Evaluation endpoints are wrapped in the
// robustness envelope; probe endpoints stay outside it so overload and
// drain never hide the server's state from its balancer.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/v1/recommend", s.envelope(http.HandlerFunc(s.handleRecommend)))
	mux.Handle("/v1/info", s.envelope(http.HandlerFunc(s.handleInfo)))
	if s.cfg.Metrics != nil {
		mux.Handle("/metricsz", s.envelope(http.HandlerFunc(s.handleMetricsz)))
	}
	return mux
}

// statusWriter tracks whether a handler already wrote headers, so the
// panic handler knows whether a 500 can still be sent.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// envelope is the per-request robustness wrapper, outermost first:
// panic containment (500, process survives), the bounded admission
// gate (503 + Retry-After on overload), request accounting and latency
// through the metrics clock, and the per-request deadline derived from
// the request's own context.
func (s *Server) envelope(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				if m := s.cfg.Metrics; m != nil {
					m.ServePanics.Add(1)
				}
				s.logf("error", "handler panic contained",
					"path", r.URL.Path, "panic", stringify(v), "stack", string(debug.Stack()))
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}
		}()

		// Admission gate: bounded in-flight work. Full means shed now —
		// a queue here is the collapse we are avoiding.
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
		default:
			if m := s.cfg.Metrics; m != nil {
				m.ServeShed.Add(1)
			}
			sw.Header().Set("Retry-After", "1")
			writeError(sw, http.StatusServiceUnavailable, "overloaded, retry later")
			return
		}

		if m := s.cfg.Metrics; m != nil {
			m.ServeRequests.Add(1)
			start := m.Now()
			defer func() { m.ServeRequestNs.Observe(m.Now().Sub(start).Nanoseconds()) }()
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	set := s.snap.Load()
	writeJSON(w, http.StatusOK, InfoResponse{
		Policies: set.Policies(),
		Users:    set.Users(),
		Hours:    set.Horizon(),
	})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	b, err := json.MarshalIndent(s.cfg.Metrics.Snapshot(), "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "metrics snapshot failed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// handleRecommend is the daemon's reason to exist: decode one typed
// Query, evaluate it against the immutable snapshot, answer with the
// typed Recommendation. Everything else in this file is armor. The
// body and the answer share one pooled buffer (wire.go); the bytes on
// the wire are json.Marshal(rec) + "\n", the offline bit-identity the
// chaos suite asserts.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	bp := getWireBuf()
	defer putWireBuf(bp)
	body, readErr := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), (*bp)[:0])
	*bp = body
	q, err := decodeQuery(body, readErr)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}

	if s.chaos != nil {
		s.chaos(r)
	}
	if err := r.Context().Err(); err != nil {
		if m := s.cfg.Metrics; m != nil {
			m.ServeTimeouts.Add(1)
		}
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
		return
	}

	rec, err := s.snap.Load().Evaluate(q)
	if err != nil {
		writeError(w, evalStatus(err), err.Error())
		return
	}
	b, ok := appendRecommendation((*bp)[:0], rec)
	*bp = b
	if !ok {
		// A NaN or infinite cost: json.Marshal would fail here too.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	writeBody(w, http.StatusOK, b)
}

// evalStatus maps Evaluate's sentinel errors onto status codes:
// unknown names are 404, a malformed hour is the caller's fault (400),
// anything else is on us.
func evalStatus(err error) int {
	switch {
	case errors.Is(err, experiments.ErrUnknownUser),
		errors.Is(err, experiments.ErrUnknownPolicy),
		errors.Is(err, experiments.ErrUnknownInstance):
		return http.StatusNotFound
	case errors.Is(err, experiments.ErrHourOutOfRange):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON marshals v and sends it with a trailing newline; the
// recommend path's two answer types have append encoders instead
// (wire.go).
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the fixed response types; fail closed anyway.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// stringify renders a recovered panic value for the log record.
func stringify(v any) string {
	switch v := v.(type) {
	case string:
		return v
	case error:
		return v.Error()
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return "unprintable panic value"
		}
		return string(b)
	}
}

// itoa is strconv.Itoa under a name short enough for log call sites.
func itoa(n int) string { return strconv.Itoa(n) }

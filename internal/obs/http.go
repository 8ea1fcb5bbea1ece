package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// codeLabels holds the decimal label of every valid HTTP status code,
// so labeling a response costs a bounds check, not a formatting
// allocation.
var codeLabels = func() (t [600]string) {
	for code := 100; code < len(t); code++ {
		t[code] = strconv.Itoa(code)
	}
	return t
}()

// CodeLabel renders an HTTP status code as a metric label value: the
// exact decimal code for any valid status, "other" outside 100-599.
func CodeLabel(code int) string {
	if code >= 100 && code < len(codeLabels) {
		return codeLabels[code]
	}
	return "other"
}

// RouteLabel returns the route label for r: the pattern mux matches it
// against, without the method prefix ("GET /v1/jobs/{id}" becomes
// "/v1/jobs/{id}"). Path parameters stay placeholders, so job IDs and
// hashes never reach a label value. Requests mux would answer with 404
// or 405 have no pattern and label as "other".
func RouteLabel(mux *http.ServeMux, r *http.Request) string {
	_, pattern := mux.Handler(r)
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		pattern = pattern[i+1:]
	}
	if pattern == "" {
		return "other"
	}
	return pattern
}

// InstrumentHTTP wraps a daemon's handler tree with its request
// metrics and access log. Every request increments
// <prefix>_http_requests_total{code} and lands in
// <prefix>_http_request_duration_seconds{route,code}, with the route
// taken from mux (see RouteLabel); log receives one line per request,
// under the request context so trace correlation applies.
func (r *Registry) InstrumentHTTP(prefix string, mux *http.ServeMux, log *slog.Logger, next http.Handler) http.Handler {
	requests := prefix + "_http_requests_total"
	duration := prefix + "_http_request_duration_seconds"
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, req)
		elapsed := time.Since(start)
		code := CodeLabel(rec.code)
		r.Counter(requests, "HTTP requests by status code.", "code", code).Inc()
		r.Histogram(duration, "HTTP request latency by route and status code.", DefBuckets,
			"route", RouteLabel(mux, req), "code", code).Observe(elapsed.Seconds())
		log.InfoContext(req.Context(), "http",
			"method", req.Method,
			"path", req.URL.Path,
			"code", rec.code,
			"dur_ms", elapsed.Milliseconds(),
			"remote", req.RemoteAddr,
		)
	})
}

// statusRecorder captures the response code for metrics and the access
// log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streams (which flush per
// event) survive the wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestRouteLabels pins the request-metrics route label lvpd derives
// from its mux: every registered pattern labels as its path, methods
// sharing a path share a label, path parameters stay placeholders, and
// requests the mux would refuse label as "other".
func TestRouteLabels(t *testing.T) {
	s, _ := newIdleServer(t, Config{})
	const id, hash = "j-000123", "0123456789abcdef"
	for _, tc := range []struct{ method, path, want string }{
		{"POST", "/v1/jobs", "/v1/jobs"},
		{"GET", "/v1/jobs", "/v1/jobs"},
		{"GET", "/v1/jobs/" + id, "/v1/jobs/{id}"},
		{"DELETE", "/v1/jobs/" + id, "/v1/jobs/{id}"},
		{"GET", "/v1/jobs/" + id + "/events", "/v1/jobs/{id}/events"},
		{"GET", "/v1/jobs/" + id + "/flightrecord", "/v1/jobs/{id}/flightrecord"},
		{"POST", "/v1/sweeps", "/v1/sweeps"},
		{"GET", "/v1/runs", "/v1/runs"},
		{"GET", "/v1/runs/diff", "/v1/runs/diff"},
		{"GET", "/v1/runs/" + hash, "/v1/runs/{hash}"},
		{"GET", "/v1/traces/" + hash, "/v1/traces/{hash}"},
		{"PUT", "/v1/traces/" + hash, "/v1/traces/{hash}"},
		{"GET", "/v1/presets", "/v1/presets"},
		{"GET", "/v1/workloads", "/v1/workloads"},
		{"POST", "/v1/workloads", "/v1/workloads"},
		{"GET", "/v1/metrics/query", "/v1/metrics/query"},
		{"GET", "/v1/alerts", "/v1/alerts"},
		{"GET", "/healthz", "/healthz"},
		{"GET", "/readyz", "/readyz"},
		{"GET", "/metrics", "/metrics"},
		{"GET", "/debug/traces", "/debug/traces"},
		{"GET", "/debug/traces/" + hash, "/debug/traces/{id}"},
		{"GET", "/debug/pprof/", "/debug/pprof/"},
		{"GET", "/debug/pprof/heap", "/debug/pprof/"},
		{"GET", "/debug/pprof/cmdline", "/debug/pprof/cmdline"},
		{"GET", "/debug/pprof/profile", "/debug/pprof/profile"},
		{"GET", "/debug/pprof/symbol", "/debug/pprof/symbol"},
		{"GET", "/debug/pprof/trace", "/debug/pprof/trace"},
		{"GET", "/no/such/route", "other"},
		{"GET", "/v1/jobs/" + id + "/nope", "other"},
		{"PATCH", "/v1/jobs", "other"},
		{"POST", "/healthz", "other"},
		{"DELETE", "/v1/runs/" + hash, "other"},
	} {
		got := obs.RouteLabel(s.mux, httptest.NewRequest(tc.method, tc.path, nil))
		if got != tc.want {
			t.Errorf("%s %s: route label %q, want %q", tc.method, tc.path, got, tc.want)
		}
		if strings.Contains(got, id) || strings.Contains(got, hash) {
			t.Errorf("%s %s: route label %q leaks a path parameter", tc.method, tc.path, got)
		}
	}
}

// TestStatusCodeLabels drives statuses lvpd's API sends through
// Handler() — including 201, 204 and 422, which once fell into
// code="other" — and reads each exact code label back from /metrics.
func TestStatusCodeLabels(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	do := func(method, path string, body []byte, want int) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, out)
		}
		return out
	}

	do("GET", "/healthz", nil, http.StatusOK)
	resp, st := submit(t, ts, JobRequest{Workload: "mcf", Predictor: "lvp", Insts: 20_000})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	waitState(t, ts, st.ID, 30*time.Second, StateDone)
	key := trace.ArtifactKey("mcf", 20_000)
	art := do("GET", "/v1/traces/"+key, nil, http.StatusOK)
	do("PUT", "/v1/traces/"+key, art, http.StatusNoContent)
	do("POST", "/v1/jobs", []byte("{"), http.StatusBadRequest)
	do("GET", "/v1/jobs/j-999999", nil, http.StatusNotFound)
	do("POST", "/healthz", nil, http.StatusMethodNotAllowed)
	do("POST", "/v1/workloads", []byte("not a trace"), http.StatusUnprocessableEntity)
	var up WorkloadUpload
	if err := json.Unmarshal(do("POST", "/v1/workloads", encodeWorkload(t, "gcc2k", 5_000), http.StatusCreated), &up); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trace.UnregisterExternal(up.Workload) })

	text := metricsText(t, ts)
	for _, c := range []struct{ route, code string }{
		{"/healthz", "200"},
		{"/v1/jobs", "202"},
		{"/v1/traces/{hash}", "200"},
		{"/v1/traces/{hash}", "204"},
		{"/v1/jobs", "400"},
		{"/v1/jobs/{id}", "404"},
		{"other", "405"},
		{"/v1/workloads", "422"},
		{"/v1/workloads", "201"},
	} {
		line := `lvpd_http_request_duration_seconds_count{route="` + c.route + `",code="` + c.code + `"} `
		if !strings.Contains(text, line) {
			t.Errorf("metrics lack %q", line)
		}
		if !strings.Contains(text, `lvpd_http_requests_total{code="`+c.code+`"} `) {
			t.Errorf("metrics lack lvpd_http_requests_total for code %s", c.code)
		}
	}
	if strings.Contains(text, `code="other"`) {
		t.Errorf("a status code fell into code=\"other\"")
	}
}

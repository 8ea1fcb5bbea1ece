package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// TestCoordinatorRouteLabels pins the request-metrics route label the
// coordinator derives from its mux: every registered pattern labels as
// its path, path parameters stay placeholders, and requests the mux
// would refuse label as "other".
func TestCoordinatorRouteLabels(t *testing.T) {
	coord, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	const worker, sweep, traceID = "w-007", "s-000042", "0123456789abcdef"
	for _, tc := range []struct{ method, path, want string }{
		{"POST", "/v1/cluster/workers", "/v1/cluster/workers"},
		{"GET", "/v1/cluster/workers", "/v1/cluster/workers"},
		{"DELETE", "/v1/cluster/workers/" + worker, "/v1/cluster/workers/{id}"},
		{"POST", "/v1/sweeps", "/v1/sweeps"},
		{"GET", "/v1/sweeps", "/v1/sweeps"},
		{"GET", "/v1/sweeps/" + sweep, "/v1/sweeps/{id}"},
		{"POST", "/v1/workloads", "/v1/workloads"},
		{"GET", "/v1/metrics/query", "/v1/metrics/query"},
		{"GET", "/v1/alerts", "/v1/alerts"},
		{"GET", "/healthz", "/healthz"},
		{"GET", "/readyz", "/readyz"},
		{"GET", "/metrics", "/metrics"},
		{"GET", "/debug/traces", "/debug/traces"},
		{"GET", "/debug/traces/" + traceID, "/debug/traces/{id}"},
		{"GET", "/no/such/route", "other"},
		{"GET", "/v1/jobs", "other"},
		{"PATCH", "/v1/sweeps", "other"},
		{"GET", "/v1/cluster/workers/" + worker, "other"},
	} {
		got := obs.RouteLabel(coord.mux, httptest.NewRequest(tc.method, tc.path, nil))
		if got != tc.want {
			t.Errorf("%s %s: route label %q, want %q", tc.method, tc.path, got, tc.want)
		}
		for _, param := range []string{worker, sweep, traceID} {
			if strings.Contains(got, param) {
				t.Errorf("%s %s: route label %q leaks a path parameter", tc.method, tc.path, got)
			}
		}
	}
}

// TestCoordinatorStatusCodeLabels drives statuses the coordinator's API
// sends through Handler() — including 422, which once fell into
// code="other" — and reads each exact code label back from /metrics.
func TestCoordinatorStatusCodeLabels(t *testing.T) {
	_, ts := newCoordinator(t, fastConfig())
	do := func(method, path string, body []byte, want int) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
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
	do("GET", "/readyz", nil, http.StatusServiceUnavailable) // no workers yet
	do("POST", "/v1/sweeps", []byte("{"), http.StatusBadRequest)
	do("GET", "/v1/sweeps/s-999999", nil, http.StatusNotFound)
	do("POST", "/v1/workloads", []byte("not a trace"), http.StatusUnprocessableEntity)
	var up server.WorkloadUpload
	if err := json.Unmarshal(do("POST", "/v1/workloads", encodeTrace(t, "mcf", 5_000), http.StatusCreated), &up); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trace.UnregisterExternal(up.Workload) })
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	do("POST", "/v1/cluster/workers", []byte(`{"url":"`+dead.URL+`"}`), http.StatusBadGateway)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, c := range []struct{ route, code string }{
		{"/healthz", "200"},
		{"/readyz", "503"},
		{"/v1/sweeps", "400"},
		{"/v1/sweeps/{id}", "404"},
		{"/v1/workloads", "422"},
		{"/v1/workloads", "201"},
		{"/v1/cluster/workers", "502"},
	} {
		line := `lvpc_http_request_duration_seconds_count{route="` + c.route + `",code="` + c.code + `"} `
		if !strings.Contains(text, line) {
			t.Errorf("metrics lack %q", line)
		}
	}
	if strings.Contains(text, `code="other"`) {
		t.Errorf("a status code fell into code=\"other\"")
	}
}

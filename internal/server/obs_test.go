package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/tsdb"
	"repro/internal/store"
)

// alertsResponse mirrors the GET /v1/alerts body.
type alertsResponse struct {
	Enabled bool               `json:"enabled"`
	Firing  int                `json:"firing"`
	Alerts  []tsdb.AlertStatus `json:"alerts"`
}

func getAlerts(t *testing.T, ts *httptest.Server) alertsResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar alertsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

// TestAlertLifecycleAndFlightRecord drives the full SLO loop with an
// explicit clock: a job failure breaches a rate() rule, the alert
// fires on /v1/alerts and in lvpd_alerts_firing, then resolves once
// the failure rate decays — and the failed job's black box survives a
// restart through the WAL-backed flight store.
func TestAlertLifecycleAndFlightRecord(t *testing.T) {
	dir := t.TempDir()
	rules, err := tsdb.ParseRules([]byte(`{
		"interval_seconds": 3600,
		"rules": [{
			"name": "job-failures",
			"expr": "rate(lvpd_jobs_total{state=\"failed\"}[1m]) > 0",
			"severity": "warn",
			"summary": "jobs are failing"
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers:           2,
		MaxInsts:          -1,
		DataDir:           dir,
		Alerts:            rules,
		ObsScrapeInterval: time.Hour, // only explicit ScrapeOnce passes
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts:      20_000,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())

	t0 := time.Now()
	s.plane.ScrapeOnce(t0) // baseline: failed = 0

	// Induce the breach: a 1ms deadline on a 50M-instruction run fails
	// with deadline exceeded.
	resp, st := submit(t, ts, JobRequest{
		Workload: "gcc2k", Predictor: "composite", Insts: 50_000_000, TimeoutMS: 1,
	})
	resp.Body.Close()
	if st.ID == "" {
		t.Fatalf("submit returned no id (status %d)", resp.StatusCode)
	}
	failed := waitState(t, ts, st.ID, 30*time.Second, StateFailed)
	if failed.Error == "" {
		t.Fatalf("failed job carries no error: %+v", failed)
	}

	// The failure enters the store; the rate over the last minute
	// breaches and the rule fires immediately (for_seconds 0).
	t1 := t0.Add(5 * time.Second)
	s.plane.ScrapeOnce(t1)
	s.plane.Evaluate(t1)
	ar := getAlerts(t, ts)
	if !ar.Enabled || ar.Firing != 1 {
		t.Fatalf("alerts after breach = %+v, want enabled with 1 firing", ar)
	}
	if len(ar.Alerts) != 1 || ar.Alerts[0].State != tsdb.AlertFiring {
		t.Fatalf("rule state = %+v, want firing", ar.Alerts)
	}

	// The firing count feeds back into the registry and therefore into
	// the next scrape.
	t2 := t1.Add(5 * time.Second)
	s.plane.ScrapeOnce(t2)
	e, err := tsdb.ParseExpr("lvpd_alerts_firing")
	if err != nil {
		t.Fatal(err)
	}
	rs := s.plane.DB.Eval(e, t2)
	if len(rs) != 1 || rs[0].Value != 1 {
		t.Fatalf("lvpd_alerts_firing = %+v, want 1", rs)
	}

	// Two quiet scrapes a couple of minutes later: the 1m rate window
	// no longer contains the increase, the rule resolves.
	t3 := t2.Add(2 * time.Minute)
	s.plane.ScrapeOnce(t3)
	t4 := t3.Add(5 * time.Second)
	s.plane.ScrapeOnce(t4)
	s.plane.Evaluate(t4)
	ar = getAlerts(t, ts)
	if ar.Firing != 0 || len(ar.Alerts) != 1 || ar.Alerts[0].State != tsdb.AlertResolved {
		t.Fatalf("alerts after decay = %+v, want resolved with 0 firing", ar)
	}

	// The failed job's flight record is retrievable now...
	var rec store.FlightRecord
	getFlight(t, ts, st.ID, &rec)
	if rec.JobID != st.ID || rec.State != StateFailed || rec.Trigger != StateFailed {
		t.Fatalf("flight record = %+v, want failed job %s", rec, st.ID)
	}
	var sawFailed bool
	for _, ev := range rec.Events {
		if strings.HasPrefix(ev.Msg, "state: failed") {
			sawFailed = true
		}
	}
	if !sawFailed {
		t.Fatalf("flight events missing failure transition: %+v", rec.Events)
	}

	// ...and after a restart on the same data dir, served from the
	// WAL-backed flight store with no in-memory job left.
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("gen-1 shutdown: %v", err)
	}
	cancel()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() {
		ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel2()
		s2.Shutdown(ctx2)
	}()
	var rec2 store.FlightRecord
	getFlight(t, ts2, st.ID, &rec2)
	if rec2.JobID != st.ID || rec2.State != StateFailed {
		t.Fatalf("flight record after restart = %+v, want failed job %s", rec2, st.ID)
	}
	if len(rec2.Events) == 0 {
		t.Fatal("flight record lost its events across the restart")
	}
}

func getFlight(t *testing.T, ts *httptest.Server, id string, rec *store.FlightRecord) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/flightrecord")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET flightrecord: %d: %s", resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(rec); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecordUnknownJob keeps the 404 contract.
func TestFlightRecordUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/nope/flightrecord")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestSSEKeepaliveAndDroppedStream verifies idle streams carry ": ping"
// comment frames and that a client disconnect before the terminal
// event is counted and noted in the job's black box.
func TestSSEKeepaliveAndDroppedStream(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:      0, // default GOMAXPROCS; the job below runs long enough
		MaxInsts:     -1,
		SSEKeepalive: 20 * time.Millisecond,
		ProgressPoll: time.Hour, // no progress events: only keepalives tick
	})
	resp, st := submit(t, ts, JobRequest{
		Workload: "gcc2k", Predictor: "composite", Insts: 80_000_000,
	})
	resp.Body.Close()
	if st.ID == "" {
		t.Fatalf("submit returned no id (status %d)", resp.StatusCode)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	sresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()

	// Read until we see a keepalive comment frame.
	sc := bufio.NewScanner(sresp.Body)
	deadline := time.After(10 * time.Second)
	got := make(chan bool, 1)
	go func() {
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), ": ping") {
				got <- true
				return
			}
		}
		got <- false
	}()
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("stream ended without a keepalive frame")
		}
	case <-deadline:
		t.Fatal("no keepalive frame within 10s")
	}

	// Drop the client mid-stream: the server counts the abandonment.
	before := s.mSSEDropped.Value()
	cancel()
	waitFor(t, 5*time.Second, func() bool { return s.mSSEDropped.Value() > before })

	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	var noted bool
	for _, ev := range j.flight.eventsCopy() {
		if strings.Contains(ev.Msg, "stream dropped") {
			noted = true
		}
	}
	if !noted {
		t.Error("dropped stream not noted in the job's flight ring")
	}

	// Cancel the big job so cleanup does not wait out the full run.
	creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	cresp, err := ts.Client().Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsQueryEndpoint smoke-checks GET /v1/metrics/query on the
// worker daemon: a scrape then a rate query over the request counter.
func TestMetricsQueryEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ObsScrapeInterval: time.Hour})

	// Generate some traffic, then take two samples 10s apart.
	for i := 0; i < 3; i++ {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	t0 := time.Now()
	s.plane.ScrapeOnce(t0)
	t1 := t0.Add(10 * time.Second)
	s.plane.ScrapeOnce(t1)

	q := ts.URL + "/v1/metrics/query?q=lvpd_http_requests_total&time_ms=" +
		jsonInt(t1.UnixMilli())
	resp, err := ts.Client().Get(q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Query   string `json:"query"`
		Results []struct {
			Labels map[string]string `json:"labels,omitempty"`
			Value  float64           `json:"value"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body.Results) == 0 {
		t.Fatalf("query status=%d body=%+v, want results", resp.StatusCode, body)
	}
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

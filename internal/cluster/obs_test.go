package cluster

import (
	"bytes"
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
)

func mustExpr(t *testing.T, q string) tsdb.Expr {
	t.Helper()
	e, err := tsdb.ParseExpr(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return e
}

// TestFederationThreeWorkers scrapes a 3-worker fleet into the
// coordinator's embedded store, kills one worker, and verifies the
// dead worker goes stale (up=0, unhealthy target, stale annotation)
// without poisoning the merged series of the survivors.
func TestFederationThreeWorkers(t *testing.T) {
	cfg := fastConfig()
	cfg.ObsScrapeInterval = time.Hour // only explicit ScrapeOnce passes
	coord, ts := newCoordinator(t, cfg)

	type wk struct {
		id string
		ts interface{ Close() }
	}
	var fleet []wk
	for i := 0; i < 3; i++ {
		wts, _ := newWorker(t)
		st, _, err := coord.RegisterWorker(context.Background(), wts.URL)
		if err != nil {
			t.Fatalf("register worker %d: %v", i, err)
		}
		fleet = append(fleet, wk{id: st.ID, ts: wts})
	}

	t0 := time.Now()
	coord.plane.ScrapeOnce(t0)

	// Every target answered: up{} for self plus up{worker=<id>} per
	// worker, all 1.
	ups := coord.plane.DB.Eval(mustExpr(t, "up"), t0)
	if len(ups) != 4 {
		t.Fatalf("up series = %d, want 4 (self + 3 workers): %+v", len(ups), ups)
	}
	for _, r := range ups {
		if r.Value != 1 {
			t.Errorf("up%v = %v, want 1", r.Labels, r.Value)
		}
	}

	// Worker metrics federate under the worker label: each worker's
	// sim-throughput gauge becomes its own series in the merged store.
	mips := coord.plane.DB.Eval(mustExpr(t, "lvpd_sim_mips"), t0)
	seen := map[string]bool{}
	for _, r := range mips {
		seen[r.Labels["worker"]] = true
	}
	for _, w := range fleet {
		if !seen[w.id] {
			t.Errorf("merged lvpd_sim_mips missing worker %s: have %v", w.id, seen)
		}
	}

	// Kill worker 0's HTTP front-end and scrape again: its target goes
	// stale instead of wedging or corrupting the pass.
	dead := fleet[0]
	dead.ts.Close()
	t1 := t0.Add(5 * time.Second)
	coord.plane.ScrapeOnce(t1)

	ups = coord.plane.DB.Eval(mustExpr(t, "up"), t1)
	byWorker := map[string]float64{}
	for _, r := range ups {
		byWorker[r.Labels["worker"]] = r.Value
	}
	if byWorker[dead.id] != 0 {
		t.Errorf("up{worker=%s} = %v after kill, want 0", dead.id, byWorker[dead.id])
	}
	for _, w := range fleet[1:] {
		if byWorker[w.id] != 1 {
			t.Errorf("up{worker=%s} = %v, want 1 (survivor poisoned?)", w.id, byWorker[w.id])
		}
	}
	st, ok := coord.plane.Collector.StatusByKey(dead.id)
	if !ok || st.Healthy {
		t.Errorf("dead worker target status = %+v, want unhealthy", st)
	}

	// The HTTP endpoint annotates the stale target so a dashboard can
	// tell a merged series is missing fresh samples from that worker.
	var resp struct {
		Query   string           `json:"query"`
		Results []map[string]any `json:"results"`
		Stale   []string         `json:"stale_targets"`
	}
	getJSON(t, ts.URL+"/v1/metrics/query?q=up&time_ms="+
		strconv.FormatInt(t1.UnixMilli(), 10), &resp)
	if len(resp.Results) == 0 {
		t.Fatalf("query endpoint returned no results")
	}
	foundStale := false
	for _, k := range resp.Stale {
		if k == dead.id {
			foundStale = true
		}
	}
	if !foundStale {
		t.Errorf("stale_targets = %v, want to include %s", resp.Stale, dead.id)
	}

	// Alerts endpoint answers even with alerting disabled.
	var alerts struct {
		Enabled bool `json:"enabled"`
	}
	getJSON(t, ts.URL+"/v1/alerts", &alerts)
	if alerts.Enabled {
		t.Errorf("alerts enabled without a rule set")
	}
}

// TestCoordinatorRequestHistogram verifies the coordinator's HTTP
// middleware records normalized routes into its duration histogram.
func TestCoordinatorRequestHistogram(t *testing.T) {
	cfg := fastConfig()
	cfg.ObsScrapeInterval = time.Hour
	coord, ts := newCoordinator(t, cfg)

	var h ClusterHealth
	getJSON(t, ts.URL+"/healthz", &h)

	coord.plane.ScrapeOnce(time.Now())
	rs := coord.plane.DB.Eval(mustExpr(t, "lvpc_http_request_duration_seconds_count"), time.Now())
	found := false
	for _, r := range rs {
		if r.Labels["route"] == "/healthz" && r.Labels["code"] == "200" && r.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no /healthz sample in request histogram: %+v", rs)
	}
}

// TestMetricsConventions lints every metric the worker daemon and the
// coordinator expose against the repo's naming rules: counters end in
// _total, histograms carry a unit suffix, every family has HELP, no
// duplicate series, bounded per-family cardinality — and the whole
// exposition round-trips through the tsdb parser.
func TestMetricsConventions(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	coord, errC := New(fastConfig())
	if errC != nil {
		t.Fatal(errC)
	}
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"lvpd", srv.Registry()},
		{"lvpc", coord.Registry()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := tc.reg.WriteTo(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
			fams, err := tsdb.ParseExposition(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("exposition does not round-trip: %v", err)
			}
			if len(fams) == 0 {
				t.Fatal("registry rendered no families")
			}
			for _, issue := range tsdb.Lint(fams, tsdb.LintOptions{}) {
				t.Errorf("%s", issue)
			}
		})
	}
}

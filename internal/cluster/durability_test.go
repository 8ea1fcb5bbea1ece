package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/tenant"
)

// waitSweepDone polls a coordinator until the sweep settles.
func waitSweepDone(t *testing.T, c *Coordinator, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := c.SweepStatusByID(id, true)
		if ok && st.State == "done" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := c.SweepStatusByID(id, true)
	t.Fatalf("sweep %s did not settle: %+v", id, st)
	return SweepStatus{}
}

// TestCoordinatorResumesOwedSweepAfterRestart is the coordinator
// durability acceptance: a sweep accepted with no workers available is
// abandoned by a hard shutdown, and a fresh coordinator on the same
// data dir owes it, re-dispatches it under the original sweep ID, and
// finishes it. A third generation then answers the same sweep entirely
// from the result warehouse without any worker at all.
func TestCoordinatorResumesOwedSweepAfterRestart(t *testing.T) {
	dir := t.TempDir()
	req := server.SweepRequest{
		Template: server.JobRequest{Insts: 20_000},
		Axes: server.SweepAxes{
			Workloads:  []string{"gcc2k"},
			Predictors: []string{"lvp", "sap"},
		},
	}
	cfg := fastConfig()
	cfg.DataDir = dir

	// Generation 1: accept the sweep with zero workers, then die before
	// any point dispatches.
	gen1, err := New(cfg)
	if err != nil {
		t.Fatalf("gen1: %v", err)
	}
	gen1.Start()
	st, err := gen1.StartSweep(context.Background(), req)
	if err != nil {
		t.Fatalf("gen1 sweep: %v", err)
	}
	if st.Pending != 2 {
		t.Fatalf("expected 2 pending points, got %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_ = gen1.Shutdown(ctx) // deadline forces abandonment of both points
	cancel()

	// Generation 2: same data dir, one live worker. The WAL must owe
	// the sweep under its original ID and finish it.
	wts, _ := newWorker(t)
	gen2, err := New(cfg)
	if err != nil {
		t.Fatalf("gen2: %v", err)
	}
	owed, ok := gen2.SweepStatusByID(st.ID, false)
	if !ok {
		t.Fatalf("gen2 does not remember sweep %s", st.ID)
	}
	if owed.Pending != 2 {
		t.Fatalf("gen2 should owe 2 points, got %+v", owed)
	}
	gen2.Start()
	if _, _, err := gen2.RegisterWorker(context.Background(), wts.URL); err != nil {
		t.Fatalf("register worker: %v", err)
	}
	final := waitSweepDone(t, gen2, st.ID)
	if final.Done != 2 || final.Failed != 0 {
		t.Fatalf("resumed sweep did not finish cleanly: %+v", final)
	}
	for _, pt := range final.Points {
		if pt.Result == nil {
			t.Fatalf("resumed point %s has no result", pt.SpecHash)
		}
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	if err := gen2.Shutdown(ctx2); err != nil {
		t.Fatalf("gen2 shutdown: %v", err)
	}
	cancel2()

	// Generation 3: no workers registered, yet the same sweep settles
	// at submit — every point comes out of the result warehouse.
	gen3, err := New(cfg)
	if err != nil {
		t.Fatalf("gen3: %v", err)
	}
	gen3.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = gen3.Shutdown(ctx)
	})
	st3, err := gen3.StartSweep(context.Background(), req)
	if err != nil {
		t.Fatalf("gen3 sweep: %v", err)
	}
	if st3.State != "done" || st3.Cached != 2 {
		t.Fatalf("gen3 should answer wholly from the warehouse, got %+v", st3)
	}
	full, _ := gen3.SweepStatusByID(st3.ID, true)
	for i, pt := range full.Points {
		want := stripNondeterminism(*final.Points[i].Result)
		got := stripNondeterminism(*pt.Result)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("warehouse result for %s drifted:\n got %+v\nwant %+v", pt.SpecHash, got, want)
		}
	}
}

func authedPostJSON(t *testing.T, url, key string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// TestCoordinatorAuthAndTenantPropagation covers the multi-tenant
// cluster path: the coordinator's own API requires a key, per-tenant
// sweep caps apply, and dispatches reach a key-protected worker with
// the submitting tenant attributed via the proxy header.
func TestCoordinatorAuthAndTenantPropagation(t *testing.T) {
	wreg, err := tenant.New([]tenant.Tenant{
		{Name: "alice", APIKey: "alice-key"},
		{Name: "fleet", APIKey: "fleet-key", Proxy: true},
	})
	if err != nil {
		t.Fatalf("worker registry: %v", err)
	}
	wsrv, err := server.New(server.Config{
		Workers:      2,
		QueueDepth:   64,
		CacheSize:    256,
		DefaultInsts: 20_000,
		Tenants:      wreg,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	wsrv.Start()
	wts := httptest.NewServer(wsrv.Handler())
	t.Cleanup(func() {
		wts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = wsrv.Shutdown(ctx)
	})

	creg, err := tenant.New([]tenant.Tenant{
		{Name: "alice", APIKey: "alice-key", MaxSweepPoints: 4},
	})
	if err != nil {
		t.Fatalf("coordinator registry: %v", err)
	}
	cfg := fastConfig()
	cfg.Tenants = creg
	cfg.WorkerAPIKey = "fleet-key"
	coord, cts := newCoordinator(t, cfg)
	if _, _, err := coord.RegisterWorker(context.Background(), wts.URL); err != nil {
		t.Fatalf("register worker: %v", err)
	}

	req := server.SweepRequest{
		Template: server.JobRequest{Insts: 20_000},
		Axes: server.SweepAxes{
			Workloads:  []string{"gcc2k"},
			Predictors: []string{"lvp", "sap"},
		},
	}

	// No key: the coordinator API is closed.
	if resp, _ := postJSON(t, cts.URL+"/v1/sweeps", req); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless sweep: want 401, got %d", resp.StatusCode)
	}
	// Alice beyond her per-tenant expansion cap.
	if resp, body := authedPostJSON(t, cts.URL+"/v1/sweeps", "alice-key", sweep64()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap sweep: want 400, got %d: %s", resp.StatusCode, body)
	}
	// Alice within her cap: accepted, attributed, and finished on a
	// worker that only admits authenticated, attributed work.
	resp, body := authedPostJSON(t, cts.URL+"/v1/sweeps", "alice-key", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: want 202, got %d: %s", resp.StatusCode, body)
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode sweep status: %v", err)
	}
	if st.Tenant != "alice" {
		t.Fatalf("sweep tenant = %q, want alice", st.Tenant)
	}
	final := waitSweepDone(t, coord, st.ID)
	if final.Done != 2 || final.Failed != 0 {
		t.Fatalf("sweep did not finish cleanly: %+v", final)
	}

	// The worker attributed the dispatched jobs to alice, not to the
	// fleet credential.
	wreq, _ := http.NewRequest(http.MethodGet, wts.URL+"/v1/jobs?tenant=alice", nil)
	wreq.Header.Set("X-API-Key", "alice-key")
	wresp, err := http.DefaultClient.Do(wreq)
	if err != nil {
		t.Fatalf("worker job list: %v", err)
	}
	defer wresp.Body.Close()
	var list struct {
		Jobs []server.JobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(wresp.Body).Decode(&list); err != nil {
		t.Fatalf("decode job list: %v", err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("worker should hold 2 alice jobs, got %d", len(list.Jobs))
	}
	for _, j := range list.Jobs {
		if j.Tenant != "alice" {
			t.Fatalf("job %s attributed to %q, want alice", j.ID, j.Tenant)
		}
	}
}

// TestCachedResubmitCommitsInOneFsync pins the batched start record: a
// resubmitted sweep answered entirely from the cache logs its start,
// its cached settlements and its completion in one WAL fsync.
func TestCachedResubmitCommitsInOneFsync(t *testing.T) {
	w, _ := newWorker(t)
	cfg := fastConfig()
	cfg.DataDir = t.TempDir()
	coord, coordTS := newCoordinator(t, cfg)
	if _, _, err := coord.RegisterWorker(context.Background(), w.URL); err != nil {
		t.Fatalf("register: %v", err)
	}
	req := server.SweepRequest{Template: server.JobRequest{Workload: "gcc2k", Predictor: "lvp", Insts: 20_000}}
	runSweep(t, coord, req)
	// The dispatched point's settlement appends run on its dispatch
	// goroutine; let them land before counting.
	coord.runners.Wait()

	fsyncs := func() float64 {
		return metricValue(t, metricsOf(t, coordTS.URL), "lvpc_wal_fsync_seconds_count")
	}
	before := fsyncs()
	st, err := coord.StartSweep(context.Background(), req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st.State != "done" || st.Cached != 1 {
		t.Fatalf("resubmit should be answered from the cache: %+v", st)
	}
	if got := fsyncs() - before; got != 1 {
		t.Fatalf("an all-cached sweep cost %v WAL fsyncs, want 1", got)
	}
}

package cluster

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// requestCounter counts the job reads a worker serves: status polls
// (GET /v1/jobs/{id}) and event-stream opens (GET /v1/jobs/{id}/events).
type requestCounter struct {
	statusGets, eventGets atomic.Int64
}

func (rc *requestCounter) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			if strings.HasSuffix(r.URL.Path, "/events") {
				rc.eventGets.Add(1)
			} else {
				rc.statusGets.Add(1)
			}
		}
		next.ServeHTTP(w, r)
	})
}

// healthSwitch fails a worker's /healthz with 503 while down is set,
// so the coordinator's prober quarantines it without touching its jobs.
type healthSwitch struct{ down atomic.Bool }

func (hs *healthSwitch) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hs.down.Load() && r.URL.Path == "/healthz" {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// runSweep starts req and waits until every point settled, failing the
// test if any point failed.
func runSweep(t *testing.T, coord *Coordinator, req server.SweepRequest) SweepStatus {
	t.Helper()
	st, err := coord.StartSweep(context.Background(), req)
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	got := waitSweepDone(t, coord, st.ID)
	if got.Failed != 0 || got.Done != got.Unique {
		t.Fatalf("sweep finished with failures: done=%d failed=%d unique=%d", got.Done, got.Failed, got.Unique)
	}
	return got
}

// waitWorkerState waits until the coordinator reports worker id in
// state want.
func waitWorkerState(t *testing.T, coord *Coordinator, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, w := range coord.Workers() {
			if w.ID == id && w.State == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never reached state %q: %+v", id, want, coord.Workers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDispatchFollowsEventStream pins event-driven dispatch: the
// coordinator learns each job's outcome from the worker's event
// stream, opening exactly one stream per dispatch attempt and never
// polling the job's status.
func TestDispatchFollowsEventStream(t *testing.T) {
	counters := []*requestCounter{{}, {}}
	coord, coordTS := newCoordinator(t, fastConfig())
	for _, rc := range counters {
		w, _ := startWorker(t, workerConfig(), rc.wrap)
		if _, _, err := coord.RegisterWorker(context.Background(), w.URL); err != nil {
			t.Fatalf("register: %v", err)
		}
	}

	runSweep(t, coord, server.SweepRequest{
		Template: server.JobRequest{Insts: 20_000},
		Axes: server.SweepAxes{
			Workloads:  []string{"gcc2k", "mcf", "sjeng"},
			Predictors: []string{"lvp", "cvp"},
		},
	})

	var polls, streams int64
	for _, rc := range counters {
		polls += rc.statusGets.Load()
		streams += rc.eventGets.Load()
	}
	dispatched := metricValue(t, metricsOf(t, coordTS.URL), "lvpc_points_dispatched_total")
	if dispatched < 6 {
		t.Fatalf("lvpc_points_dispatched_total = %v, want at least the 6 points", dispatched)
	}
	if polls != 0 {
		t.Errorf("dispatch polled job status %d times, want 0", polls)
	}
	if float64(streams) != dispatched {
		t.Errorf("opened %d job event streams for %v dispatch attempts, want one per attempt", streams, dispatched)
	}
}

// TestTraceArtifactsReshippedAfterReactivation pins the per-worker
// shipping memory: an artifact a worker accepted is not shipped to it
// again, but a worker that re-enters active — re-registered after a
// drain, reactivated by a half-open probe after quarantine, or simply
// registered again — is treated as empty and receives the artifact
// with the next sweep.
func TestTraceArtifactsReshippedAfterReactivation(t *testing.T) {
	var hs healthSwitch
	w0, _ := startWorker(t, workerConfig(), hs.wrap)
	w1, _ := newWorker(t)
	coord, coordTS := newCoordinator(t, fastConfig())
	ctx := context.Background()
	st0, _, err := coord.RegisterWorker(ctx, w0.URL)
	if err != nil {
		t.Fatalf("register w0: %v", err)
	}
	st1, _, err := coord.RegisterWorker(ctx, w1.URL)
	if err != nil {
		t.Fatalf("register w1: %v", err)
	}

	// One stream (gcc2k at 20k instructions) throughout; a fresh run
	// seed per sweep keeps every point uncached.
	seed := uint64(0)
	sweepAndCountShipped := func() float64 {
		t.Helper()
		seed++
		runSweep(t, coord, server.SweepRequest{
			Template: server.JobRequest{Workload: "gcc2k", Predictor: "lvp", Insts: 20_000},
			Axes:     server.SweepAxes{Seeds: []uint64{seed}},
		})
		return metricValue(t, metricsOf(t, coordTS.URL), "lvpc_trace_artifacts_shipped_total")
	}

	if got := sweepAndCountShipped(); got != 2 {
		t.Fatalf("first sweep shipped %v artifacts, want 2 (one per worker)", got)
	}
	if got := sweepAndCountShipped(); got != 2 {
		t.Fatalf("second sweep re-shipped: shipped total %v, want 2", got)
	}

	// Drain w1 and register it again: it re-enters active and is
	// shipped the artifact once more; w0 still holds it.
	if _, ok := coord.DrainWorker(st1.ID); !ok {
		t.Fatalf("drain %s failed", st1.ID)
	}
	if _, created, err := coord.RegisterWorker(ctx, w1.URL); err != nil || created {
		t.Fatalf("re-register w1: created=%v err=%v", created, err)
	}
	if got := sweepAndCountShipped(); got != 3 {
		t.Fatalf("after drain and re-registration shipped total %v, want 3", got)
	}

	// Quarantine w0 through failed health probes, then let a half-open
	// probe reactivate it.
	hs.down.Store(true)
	waitWorkerState(t, coord, st0.ID, WorkerQuarantined)
	hs.down.Store(false)
	waitWorkerState(t, coord, st0.ID, WorkerActive)
	if got := sweepAndCountShipped(); got != 4 {
		t.Fatalf("after quarantine and reactivation shipped total %v, want 4", got)
	}
	if got := sweepAndCountShipped(); got != 4 {
		t.Fatalf("steady state re-shipped: shipped total %v, want 4", got)
	}

	// A worker that restarts quickly re-joins under its old URL while
	// still listed active: registration alone resets its memory too.
	if _, created, err := coord.RegisterWorker(ctx, w0.URL); err != nil || created {
		t.Fatalf("re-register active w0: created=%v err=%v", created, err)
	}
	if got := sweepAndCountShipped(); got != 5 {
		t.Fatalf("after re-registering an active worker shipped total %v, want 5", got)
	}
}

// TestSweepReexportsStreamedProgress pins that a running point's live
// progress, now delivered as progress events on the worker's job event
// stream, still shows through the sweep status.
func TestSweepReexportsStreamedProgress(t *testing.T) {
	cfg := workerConfig()
	cfg.ProgressInterval = 2048
	cfg.ProgressPoll = 5 * time.Millisecond
	w, _ := startWorker(t, cfg, nil)
	coord, _ := newCoordinator(t, fastConfig())
	if _, _, err := coord.RegisterWorker(context.Background(), w.URL); err != nil {
		t.Fatalf("register: %v", err)
	}
	st, err := coord.StartSweep(context.Background(), server.SweepRequest{
		Template: server.JobRequest{Workload: "gcc2k", Predictor: "lvp", Insts: 1_000_000},
	})
	if err != nil {
		t.Fatalf("StartSweep: %v", err)
	}
	progressSeen := false
	deadline := time.Now().Add(90 * time.Second)
	for {
		cur, ok := coord.SweepStatusByID(st.ID, true)
		if !ok {
			t.Fatalf("sweep %s vanished", st.ID)
		}
		for _, pt := range cur.Points {
			if pt.State == PointRunning && pt.Progress != nil && pt.Progress.Instructions > 0 {
				progressSeen = true
			}
		}
		if cur.State == "done" {
			if cur.Done != 1 {
				t.Fatalf("sweep finished without its point: %+v", cur)
			}
			if cur.Points[0].Progress != nil {
				t.Errorf("settled point still reports live progress: %+v", cur.Points[0].Progress)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !progressSeen {
		t.Fatal("the running point never re-exported its worker's progress")
	}
}

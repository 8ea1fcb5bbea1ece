package cluster

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	otrace "repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// encodeTrace returns a tracein container holding the first n
// instructions of a synthetic workload — the test stand-in for a real
// CVP-1 trace file.
func encodeTrace(t *testing.T, workload string, n uint64) []byte {
	t.Helper()
	w, ok := trace.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %s", workload)
	}
	var buf bytes.Buffer
	if _, err := tracein.Encode(&buf, w.Build(n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterExternalTraceSweep is the uploaded-trace acceptance test:
// a trace file POSTed to the coordinator becomes a sweepable workload —
// the coordinator pre-ships the converted recording to every worker, no
// node ever generates the stream live (there is no generator to fall
// back to for real traces), and the results land in the warehouse
// attributed to the external workload.
func TestClusterExternalTraceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster simulation")
	}
	const insts = 20_000
	workers := make([]string, 2)
	for i := range workers {
		ts, _ := newWorker(t)
		workers[i] = ts.URL
	}
	cfg := fastConfig()
	cfg.TraceCacheDir = t.TempDir()
	cfg.DataDir = t.TempDir()
	coord, coordTS := newCoordinator(t, cfg)
	for _, url := range workers {
		resp, body := postJSON(t, coordTS.URL+"/v1/cluster/workers", map[string]string{"url": url})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register: %d: %s", resp.StatusCode, body)
		}
	}

	data := encodeTrace(t, "gcc2k", insts)
	resp, err := http.Post(coordTS.URL+"/v1/workloads", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var up server.WorkloadUpload
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d, want 201", resp.StatusCode)
	}
	t.Cleanup(func() { trace.UnregisterExternal(up.Workload) })
	if up.Insts != insts || up.BackfilledBytes != 0 {
		t.Fatalf("upload report: %+v", up)
	}

	req := server.SweepRequest{
		Template: server.JobRequest{Insts: insts},
		Axes: server.SweepAxes{
			Workloads:  []string{up.Workload},
			Predictors: []string{"lvp", "sap"},
		},
	}
	sresp, body := postJSON(t, coordTS.URL+"/v1/sweeps", req)
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d: %s", sresp.StatusCode, body)
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	done := waitSweepDone(t, coord, st.ID)
	if done.Done != 2 || done.Failed != 0 {
		t.Fatalf("sweep finished with done=%d failed=%d", done.Done, done.Failed)
	}

	// The coordinator converted the upload once and shipped the
	// recording to both workers; nothing was ever generated live.
	coordText := metricsOf(t, coordTS.URL)
	wantMetricLine(t, coordText, "lvpc_trace_uploads_total 1", "coordinator")
	wantMetricLine(t, coordText, "lvpc_trace_artifacts_generated_total 0", "coordinator")
	wantMetricLine(t, coordText, "lvpc_trace_artifacts_shipped_total 2", "coordinator")
	for i, url := range workers {
		text := metricsOf(t, url)
		who := "worker " + string(rune('A'+i))
		wantMetricLine(t, text, "lvpd_trace_artifact_generated_total 0", who)
		wantMetricLine(t, text, "lvpd_trace_artifact_received_total 1", who)
	}

	// Both results were retained, attributed to the external workload
	// and selectable by provenance.
	recs := coord.st.Warehouse().List(store.Filter{Source: "external"})
	if len(recs) != 2 {
		t.Fatalf("warehouse external records = %d, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Workload != up.Workload {
			t.Fatalf("warehouse workload = %q, want %q", rec.Workload, up.Workload)
		}
	}
	if n := len(coord.st.Warehouse().List(store.Filter{Source: "synthetic"})); n != 0 {
		t.Fatalf("warehouse synthetic records = %d, want 0", n)
	}
}

// lockedBuffer is a log sink safe to read while handlers write to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCoordinatorUploadLogAttribution pins the coordinator's upload log
// line to lvpd's: logged under the request context (so it carries the
// request's trace_id) and attributed to the default tenant rather than
// an empty one when the coordinator runs single-tenant.
func TestCoordinatorUploadLogAttribution(t *testing.T) {
	var logs lockedBuffer
	cfg := fastConfig()
	cfg.Logger = slog.New(otrace.NewLogHandler(slog.NewJSONHandler(&logs, nil)))
	_, ts := newCoordinator(t, cfg)

	resp, err := http.Post(ts.URL+"/v1/workloads", "application/octet-stream",
		bytes.NewReader(encodeTrace(t, "sjeng", 5_000)))
	if err != nil {
		t.Fatal(err)
	}
	var up server.WorkloadUpload
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d, want 201", resp.StatusCode)
	}
	t.Cleanup(func() { trace.UnregisterExternal(up.Workload) })
	traceID := resp.Header.Get(otrace.TraceIDHeader)
	if traceID == "" {
		t.Fatal("upload response carries no trace id")
	}

	for _, line := range strings.Split(logs.String(), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil || rec["msg"] != "external trace uploaded" {
			continue
		}
		if rec["tenant"] != "default" || rec["trace_id"] != traceID {
			t.Fatalf("upload log tenant=%v trace_id=%v, want default and %s", rec["tenant"], rec["trace_id"], traceID)
		}
		return
	}
	t.Fatalf("no upload log line in:\n%s", logs.String())
}

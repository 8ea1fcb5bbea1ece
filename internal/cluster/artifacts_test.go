package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func metricsOf(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func wantMetricLine(t *testing.T, text, line, who string) {
	t.Helper()
	if !strings.Contains(text, line) {
		var got []string
		for _, l := range strings.Split(text, "\n") {
			if strings.Contains(l, "trace_artifact") {
				got = append(got, l)
			}
		}
		t.Fatalf("%s metrics missing %q; artifact lines:\n%s", who, line, strings.Join(got, "\n"))
	}
}

// TestSweepPreShipsTraceArtifacts pins the cluster's zero-regeneration
// property: for a sweep whose points share one workload spec, the
// coordinator records the stream exactly once, ships the artifact to
// every worker before dispatch, and no worker ever generates the
// stream live — every run on every worker replays the shipped
// recording. A second sweep over the same stream ships nothing: each
// worker already holds the artifact.
func TestSweepPreShipsTraceArtifacts(t *testing.T) {
	workers := make([]*httptest.Server, 2)
	for i := range workers {
		workers[i], _ = newWorker(t)
	}
	_, coordTS := newCoordinator(t, fastConfig())
	for _, w := range workers {
		resp, body := postJSON(t, coordTS.URL+"/v1/cluster/workers", map[string]string{"url": w.URL})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register: %d: %s", resp.StatusCode, body)
		}
	}

	req := sweep64()
	req.Axes.Workloads = []string{"gcc2k"}
	req.Axes.Predictors = []string{"lvp", "sap", "cvp"}
	req.Axes.EntriesPer = nil
	req.Axes.Seeds = nil
	resp, body := postJSON(t, coordTS.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d: %s", resp.StatusCode, body)
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	waitDone := func(id string) {
		deadline := time.Now().Add(120 * time.Second)
		for {
			var cur SweepStatus
			getJSON(t, coordTS.URL+"/v1/sweeps/"+id, &cur)
			if cur.State == "done" {
				if cur.Failed != 0 || cur.Done != 3 {
					t.Fatalf("sweep finished with done=%d failed=%d", cur.Done, cur.Failed)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("sweep did not finish: %+v", cur)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitDone(st.ID)

	// The coordinator recorded the single distinct stream once and
	// shipped it to both workers.
	coordText := metricsOf(t, coordTS.URL)
	wantMetricLine(t, coordText, "lvpc_trace_artifacts_generated_total 1", "coordinator")
	wantMetricLine(t, coordText, "lvpc_trace_artifacts_shipped_total 2", "coordinator")

	// No worker generated the stream live; each received exactly the
	// shipped artifact. (Per-worker run counts depend on dispatch
	// placement, so only generation and receipt are pinned.)
	for i, w := range workers {
		text := metricsOf(t, w.URL)
		who := "worker " + strings.Repeat("I", i+1)
		wantMetricLine(t, text, "lvpd_trace_artifact_generated_total 0", who)
		wantMetricLine(t, text, "lvpd_trace_artifact_received_total 1", who)
	}

	// The same stream again, with a fresh run seed so every point is
	// dispatched: nothing is re-shipped, and the workers still replay
	// the artifact they were given the first time.
	req.Axes.Seeds = []uint64{2}
	resp, body = postJSON(t, coordTS.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second sweep submit: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitDone(st.ID)
	coordText = metricsOf(t, coordTS.URL)
	wantMetricLine(t, coordText, "lvpc_trace_artifacts_shipped_total 2", "coordinator after the second sweep")
	for i, w := range workers {
		text := metricsOf(t, w.URL)
		who := "worker " + strings.Repeat("I", i+1) + " after the second sweep"
		wantMetricLine(t, text, "lvpd_trace_artifact_generated_total 0", who)
		wantMetricLine(t, text, "lvpd_trace_artifact_received_total 1", who)
	}
}

package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// doneFrame is the terminal frame a worker sends for a finished job.
const doneFrame = "event: done\ndata: {\"id\":\"j-000001\",\"state\":\"done\",\"result\":{\"workload\":\"gcc2k\"}}\n\n"

func TestReadJobEventsFollowsToTerminal(t *testing.T) {
	stream := ": ping\n\n" +
		"event: queued\ndata: {\"id\":\"j-000001\",\"state\":\"queued\"}\n\n" +
		"event: started\r\ndata: {\"id\":\"j-000001\",\"state\":\"running\"}\r\n\r\n" +
		"event: progress\ndata: {\"phase\":\"run\",\"instructions\":4096}\n\n" +
		"event: rebalanced\ndata: not json at all\n\n" + // unknown: skipped
		"data: {}\n\n" + // unnamed ("message"): skipped
		"event: progress\ndata: {\"phase\":\"run\",\"instructions\":8192}\n\n" +
		doneFrame
	var seen []uint64
	st, err := readJobEvents(strings.NewReader(stream), func(p *server.ProgressView) {
		seen = append(seen, p.Instructions)
	})
	if err != nil {
		t.Fatalf("readJobEvents: %v", err)
	}
	if st.State != server.StateDone || st.ID != "j-000001" || st.Result == nil || st.Result.Workload != "gcc2k" {
		t.Fatalf("terminal status = %+v", st)
	}
	if len(seen) != 2 || seen[0] != 4096 || seen[1] != 8192 {
		t.Fatalf("progress delivered = %v, want [4096 8192]", seen)
	}

	for _, state := range []string{server.StateFailed, server.StateCanceled} {
		frame := "event: " + state + "\ndata: {\"id\":\"j-2\",\"state\":\"" + state + "\",\"error\":\"x\"}\n\n"
		st, err := readJobEvents(strings.NewReader(frame), func(*server.ProgressView) {})
		if err != nil || st.State != state || st.Error != "x" {
			t.Fatalf("%s frame: status %+v, err %v", state, st, err)
		}
	}
}

// TestReadJobEventsRejectsBrokenStreams pins that every stream which
// cannot deliver a terminal status fails as a *workerError — the class
// that blames the worker and retries the point.
func TestReadJobEventsRejectsBrokenStreams(t *testing.T) {
	cases := map[string]string{
		"empty":                  "",
		"ends before terminal":   "event: started\ndata: {\"state\":\"running\"}\n\n",
		"terminal not delimited": strings.TrimSuffix(doneFrame, "\n"),
		"truncated mid-line":     doneFrame[:len(doneFrame)/2],
		"undecodable terminal":   "event: done\ndata: {\"state\":\"do\n\n",
		"undecodable progress":   "event: progress\ndata: [1,2\n\n" + doneFrame,
		"state disagrees":        "event: done\ndata: {\"state\":\"running\"}\n\n",
		"oversize line":          "event: done\ndata: " + strings.Repeat("x", maxWorkerBytes) + "\n\n",
		"oversize event data":    "event: done\n" + strings.Repeat("data: "+strings.Repeat("y", 1<<20)+"\n", 5) + "\n",
	}
	for name, stream := range cases {
		_, err := readJobEvents(strings.NewReader(stream), func(*server.ProgressView) {})
		var we *workerError
		if !errors.As(err, &we) {
			t.Errorf("%s: err = %v (%T), want *workerError", name, err, err)
		}
	}
}

// endlessLine is an unbounded stream with no newline in it.
type endlessLine struct{}

func (endlessLine) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'z'
	}
	return len(p), nil
}

// TestReadJobEventsBoundsMemory feeds an endless line and checks the
// reader gives up near maxWorkerBytes instead of buffering the stream.
func TestReadJobEventsBoundsMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	src := io.LimitReader(endlessLine{}, 16*maxWorkerBytes)
	_, err := readJobEvents(src, func(*server.ProgressView) {})
	runtime.ReadMemStats(&after)
	var we *workerError
	if !errors.As(err, &we) {
		t.Fatalf("endless line: err = %v, want *workerError", err)
	}
	// The scanner's buffer doubles up to the bound: about 2x in total.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*maxWorkerBytes {
		t.Fatalf("reading an endless line allocated %d bytes, bound %d", got, 4*maxWorkerBytes)
	}
}

// TestBrokenEventStreamRetriesElsewhere drives a sweep across a real
// worker and an impostor whose event streams break off before the
// terminal event: the attempts on the impostor fail as worker faults
// that open its circuit, and the points are retried until they finish
// on the real worker.
func TestBrokenEventStreamRetriesElsewhere(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, server.Health{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusAccepted, server.JobStatus{ID: "j-000001", State: server.StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: queued\ndata: {\"state\":\"queued\"}\n\n"+doneFrame[:30])
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {})
	impostor := httptest.NewServer(mux)
	t.Cleanup(impostor.Close)
	real, _ := newWorker(t)

	// No periodic probes (their successes would reset the impostor's
	// failure count) and no half-open return: once its broken streams
	// open the circuit, the impostor stays out.
	cfg := fastConfig()
	cfg.HealthInterval = time.Hour
	cfg.QuarantineCooldown = time.Hour
	coord, coordTS := newCoordinator(t, cfg)
	imp, _, err := coord.RegisterWorker(context.Background(), impostor.URL)
	if err != nil {
		t.Fatalf("register impostor: %v", err)
	}
	if _, _, err := coord.RegisterWorker(context.Background(), real.URL); err != nil {
		t.Fatalf("register worker: %v", err)
	}
	runSweep(t, coord, server.SweepRequest{
		Template: server.JobRequest{Insts: 20_000},
		Axes:     server.SweepAxes{Workloads: []string{"gcc2k", "mcf"}, Predictors: []string{"lvp", "cvp"}},
	})
	if got := metricValue(t, metricsOf(t, coordTS.URL), "lvpc_points_retried_total"); got < 1 {
		t.Fatalf("lvpc_points_retried_total = %v, want retries off the impostor", got)
	}
	waitWorkerState(t, coord, imp.ID, WorkerQuarantined)
}

// FuzzJobEvents feeds arbitrary bytes to the event-stream reader: it
// must never panic, must fail only with *workerError, and may succeed
// only with a terminal status.
func FuzzJobEvents(f *testing.F) {
	f.Add([]byte(doneFrame))
	f.Add([]byte(": ping\n\nevent: progress\ndata: {\"instructions\":1}\n\n" + doneFrame))
	f.Add([]byte("event: failed\r\ndata: {\"state\":\"failed\",\"error\":\"boom\"}\r\n\r\n"))
	f.Add([]byte("event: done\ndata: {\"state\":\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := readJobEvents(bytes.NewReader(data), func(p *server.ProgressView) {
			if p == nil {
				t.Fatal("nil progress delivered")
			}
		})
		if err != nil {
			var we *workerError
			if !errors.As(err, &we) {
				t.Fatalf("err = %v (%T), want *workerError", err, err)
			}
			return
		}
		if !terminalJobState(st.State) {
			t.Fatalf("success with non-terminal state %q", st.State)
		}
	})
}

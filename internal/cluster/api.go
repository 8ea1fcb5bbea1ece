package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	otrace "repro/internal/obs/trace"
	"repro/internal/server"
)

// Handler returns the coordinator's HTTP API:
//
//	POST   /v1/cluster/workers      register (or reactivate) a worker
//	GET    /v1/cluster/workers      list workers with state and load
//	DELETE /v1/cluster/workers/{id} drain a worker (steals its points)
//	POST   /v1/sweeps               submit a sweep for distributed execution
//	GET    /v1/sweeps               list retained sweeps (summaries)
//	GET    /v1/sweeps/{id}          aggregated sweep status with points
//	GET    /healthz                 coordinator liveness + fleet summary
//	GET    /readyz                  readiness: accepting and has active workers
//	GET    /debug/traces            recent coordinator-side traces
//	GET    /debug/traces/{id}       one trace, merged across coordinator and workers
//	GET    /metrics                 Prometheus-style metrics
//	GET    /v1/metrics/query        federated range/instant queries over the fleet
//	GET    /v1/alerts               SLO alert states (firing/pending/resolved)
//
// Trace propagation middleware wraps the tree, so a POST /v1/sweeps
// carrying a traceparent header ties the whole distributed execution
// into the submitter's trace. Tenant authentication guards the /v1/
// surface when the coordinator runs with a tenants file.
func (c *Coordinator) Handler() http.Handler {
	return c.tracer.Middleware(c.reg.InstrumentHTTP("lvpc", c.mux, c.log,
		server.Authenticate(c.tenants, c.mAuthFailed, c.mux)))
}

// RegisterRequest is the POST /v1/cluster/workers body.
type RegisterRequest struct {
	URL string `json:"url"`
}

// ClusterHealth is the GET /healthz body: coordinator liveness plus a
// fleet roll-up.
type ClusterHealth struct {
	Status             string `json:"status"`
	Workers            int    `json:"workers"`
	ActiveWorkers      int    `json:"active_workers"`
	QuarantinedWorkers int    `json:"quarantined_workers,omitempty"`
	PointsInflight     int64  `json:"points_inflight"`
	Sweeps             int    `json:"sweeps"`
	CacheEntries       int    `json:"cache_entries"`
}

func (c *Coordinator) routes() {
	c.mux.HandleFunc("POST /v1/cluster/workers", c.handleRegisterWorker)
	c.mux.HandleFunc("GET /v1/cluster/workers", c.handleListWorkers)
	c.mux.HandleFunc("DELETE /v1/cluster/workers/{id}", c.handleDrainWorker)
	c.mux.HandleFunc("POST /v1/sweeps", c.handleStartSweep)
	c.mux.HandleFunc("POST /v1/workloads", server.UploadHandler(c.traces, c.tenants, c.mUploads, c.log))
	c.mux.HandleFunc("GET /v1/sweeps", c.handleListSweeps)
	c.mux.HandleFunc("GET /v1/sweeps/{id}", c.handleSweepStatus)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.Handle("GET /debug/traces", c.tracer.IndexHandler())
	c.mux.HandleFunc("GET /debug/traces/{id}", c.handleMergedTrace)
	c.mux.Handle("GET /metrics", c.reg.Handler())
	c.mux.HandleFunc("GET /v1/metrics/query", c.plane.HandleQuery)
	c.mux.HandleFunc("GET /v1/alerts", c.plane.HandleAlerts)
}

func (c *Coordinator) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad register body: "+err.Error())
		return
	}
	if req.URL == "" {
		server.WriteError(w, http.StatusBadRequest, "register body needs a url field")
		return
	}
	st, created, err := c.RegisterWorker(r.Context(), req.URL)
	if err != nil {
		var probeFailed bool
		var we *workerError
		if errors.As(err, &we) {
			probeFailed = true
		}
		if probeFailed || errors.Is(err, context.DeadlineExceeded) {
			server.WriteError(w, http.StatusBadGateway, err.Error())
		} else {
			server.WriteError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	server.WriteJSON(w, code, st)
}

func (c *Coordinator) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
}

func (c *Coordinator) handleDrainWorker(w http.ResponseWriter, r *http.Request) {
	st, ok := c.DrainWorker(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no worker %q", r.PathValue("id")))
		return
	}
	server.WriteJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleStartSweep(w http.ResponseWriter, r *http.Request) {
	var req server.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad sweep body: "+err.Error())
		return
	}
	st, err := c.StartSweep(r.Context(), req)
	if err != nil {
		switch {
		case !c.accepting.Load():
			server.WriteError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, errDurability):
			server.WriteError(w, http.StatusInternalServerError, err.Error())
		default:
			server.WriteError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	code := http.StatusAccepted
	if st.State == "done" { // every point cached at submit
		code = http.StatusOK
	}
	server.WriteJSON(w, code, st)
}

func (c *Coordinator) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"sweeps": c.SweepStatuses()})
}

func (c *Coordinator) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.SweepStatusByID(r.PathValue("id"), true)
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no sweep %q", r.PathValue("id")))
		return
	}
	server.WriteJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	h := ClusterHealth{
		Status:       "ok",
		Workers:      len(c.workers),
		Sweeps:       len(c.sweeps),
		CacheEntries: c.cache.Len(),
	}
	for _, wk := range c.workers {
		switch wk.state {
		case WorkerActive:
			h.ActiveWorkers++
		case WorkerQuarantined:
			h.QuarantinedWorkers++
		}
	}
	c.mu.Unlock()
	h.PointsInflight = c.mInflight.Value()
	server.WriteJSON(w, http.StatusOK, h)
}

// handleReadyz reports whether the coordinator can usefully accept a
// sweep right now: it is not draining and at least one worker is
// active. Liveness stays on /healthz, which answers 200 regardless.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !c.accepting.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	c.mu.Lock()
	active := 0
	for _, wk := range c.workers {
		if wk.state == WorkerActive {
			active++
		}
	}
	c.mu.Unlock()
	if active == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "no active workers", "active_workers": 0,
		})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "active_workers": active})
}

// handleMergedTrace serves one trace as Chrome trace-event JSON with
// the coordinator's own spans merged with the matching spans fetched
// from every registered worker's /debug/traces/{id}. Workers that no
// longer remember the trace (ring eviction, restart) or fail the fetch
// are skipped — a partial trace beats none.
func (c *Coordinator) handleMergedTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events := otrace.ChromeEvents(c.tracer.Service(), c.tracer.TraceSpans(id))

	c.mu.Lock()
	urls := make([]string, 0, len(c.workers))
	for _, wk := range c.workers {
		urls = append(urls, wk.url)
	}
	c.mu.Unlock()
	sort.Strings(urls)

	for _, u := range urls {
		ctx, cancel := context.WithTimeout(r.Context(), c.cfg.HealthTimeout)
		code, body, err := c.workerClient(u, nil).do(ctx, http.MethodGet, "/debug/traces/"+id, nil)
		cancel()
		if err != nil || code != http.StatusOK {
			continue
		}
		var part struct {
			TraceEvents []otrace.Event `json:"traceEvents"`
		}
		if json.Unmarshal(body, &part) != nil {
			continue
		}
		events = append(events, part.TraceEvents...)
	}

	if len(events) == 0 {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no trace %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = otrace.WriteChrome(w, events)
}
